package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pcaps/internal/experiments"
)

// root is the repository root as seen from this package's directory.
const root = ".."

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true},
		{9999, 0.99, true},
		{1000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{199, 0.9, true},
		{100, 0.9, true},
		{20, 0.5, true},
		{19, 1, false},
		{0, 1, false},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, q*100, beyond(c.n, q))
		}
	}
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := quantile(s, 0.99); got != 990 {
		t.Errorf("nearest-rank p99 of 1..1000 = %v, want 990", got)
	}
	if got := quantile(s, 0.5); got != 500 {
		t.Errorf("nearest-rank p50 of 1..1000 = %v, want 500", got)
	}
}

func TestLadderSchedule(t *testing.T) {
	l := ladder{BeginRPS: 200, StepRPS: 100, TargetRPS: 500, Passes: 2}
	if got, want := l.rates(), []float64{200, 300, 400, 500}; !slices.Equal(got, want) {
		t.Fatalf("rates = %v, want %v", got, want)
	}
	due, step := l.schedule(2 * time.Second)
	counts := make([]int, 4)
	for i, k := range step {
		counts[k]++
		if i > 0 && due[i] < due[i-1] {
			t.Fatalf("due times not ordered at %d: %v after %v", i, due[i], due[i-1])
		}
		if lo := time.Duration(k) * 2 * time.Second; due[i] < lo || due[i] >= lo+2*time.Second {
			t.Fatalf("request %d due at %v, outside step %d's slot", i, due[i], k)
		}
	}
	if want := []int{400, 600, 800, 1000}; !slices.Equal(counts, want) {
		t.Fatalf("requests per step = %v, want %v", counts, want)
	}
	if got := l.slot(16 * time.Second); got != 2*time.Second {
		t.Fatalf("slot of a 16 s run over 2 passes of 4 steps = %v, want 2s", got)
	}
	// A slot that is not a whole number of intervals keeps the request
	// due inside its last fraction: 200 rps for 20/12 s is 334 requests.
	due, _ = ladder{BeginRPS: 200, StepRPS: 400, TargetRPS: 200}.schedule(20 * time.Second / 12)
	if len(due) != 334 || due[333] >= 20*time.Second/12 {
		t.Fatalf("%d requests in a 1.67 s slot at 200 rps, last due %v; want 334 inside the slot", len(due), due[len(due)-1])
	}
}

// TestStepStats checks that a step's p50 is the median of its passes'
// medians, so one slow pass cannot set it, while its p99 pools every
// pass, and that a backlog growing in any pass marks the step.
func TestStepStats(t *testing.T) {
	l := ladder{BeginRPS: 100, StepRPS: 100, TargetRPS: 200, Passes: 3}
	due, step := l.schedule(time.Second)
	lr := &ladderRun{rates: l.rates(), passes: l.Passes, perPass: len(due), due: due, step: step}
	for p := range l.Passes {
		ms := time.Duration(p+1) * time.Millisecond
		if p == 1 {
			ms = 100 * time.Millisecond // one slow pass
		}
		for i := range due {
			lr.latency = append(lr.latency, ms)
			lr.done = append(lr.done, due[i]+ms)
			lr.ok = append(lr.ok, true)
		}
		flat, rising := []int{1, 1, 1, 1}, []int{0, 10, 30, 60}
		if p == 2 {
			lr.inflight = append(lr.inflight, [][]int{flat, rising})
		} else {
			lr.inflight = append(lr.inflight, [][]int{flat, flat})
		}
	}
	steps := lr.steps(20)
	if s := steps[0]; s.n != 300 || s.p50 != 3 || s.p99 != 100 || s.growing {
		t.Errorf("step 0: n %d p50 %v p99 %v growing %v; want 300, 3 (median of 1, 100, 3), 100, false", s.n, s.p50, s.p99, s.growing)
	}
	if !steps[1].growing {
		t.Error("step 1 grew in its last pass but is not marked growing")
	}
	// Served: answered requests over each pass's span from the step's
	// first due time to its last answer (0.991 + 1.09 + 0.993 s).
	if s := steps[0]; math.Abs(s.served-300/3.074) > 1e-6 {
		t.Errorf("step 0 served %v per s, want %v", s.served, 300/3.074)
	}
}

func TestBacklogGrowth(t *testing.T) {
	flat := []int{3, 0, 5, 2, 1, 4, 0, 2, 3, 1, 2, 0}
	spike := []int{1, 2, 1, 0, 2, 60, 70, 1, 2, 1, 0, 2}
	rising := make([]int, 40)
	for i := range rising {
		rising[i] = i * 5
	}
	if growing(flat, 20) {
		t.Error("a steady backlog counted as growing")
	}
	if growing(spike, 20) {
		t.Error("a drained spike counted as growing")
	}
	if !growing(rising, 20) {
		t.Error("a backlog that builds over the slot did not count as growing")
	}
	if growing(nil, 20) {
		t.Error("no samples counted as growing")
	}
}

func TestMaxRate(t *testing.T) {
	steps := []stepStats{
		{rate: 200, n: 400, p99: 5, served: 199},
		{rate: 300, n: 600, p99: 60, served: 298}, // over the limit
		{rate: 400, n: 800, p99: 8, served: 397},
		{rate: 500, n: 1000, p99: 9, served: 480, growing: true},
		{rate: 600, n: 1200, p99: 7, served: 590, failed: 1},
	}
	if got := maxRate(steps, 50); got != 397 {
		t.Fatalf("maxRate = %v, want the 400 rps step's served 397", got)
	}
	if got := maxRate(steps[1:2], 50); got != 0 {
		t.Fatalf("maxRate with no passing step = %v, want 0", got)
	}
}

func TestMaskTimings(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(root, "internal/experiments/testdata/golden/fig20.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden := string(b)
	// Live latencies change digits and column widths, never structure.
	changed := strings.Replace(golden, "1.24", "123.456", 1)
	if maskTimings(changed) != maskTimings(golden) {
		t.Error("masking did not hide a changed timing")
	}
	if maskTimings(golden+"extra row\n") == maskTimings(golden) {
		t.Error("masking hid a structural change")
	}
}

func TestArtifactCheck(t *testing.T) {
	p := artifactParams{IDs: []string{"table1"}, GoldenDir: "internal/experiments/testdata/golden"}
	rep, err := experiments.Run("table1", experiments.Options{Fast: true, Seed: defaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newArtifactChecker(root, p)
	if err != nil {
		t.Fatal(err)
	}
	out := newOutcome()
	chk.check(out, defaultSeed, []*experiments.Report{rep})
	if out.failed != 0 || out.attempted != 1 {
		t.Fatalf("golden table1: %d of %d failed: %v", out.failed, out.attempted, out.problems)
	}
	// At another seed the first rendering is the reference: the default
	// seed's report, relabelled, passes once and then must recur.
	chk.check(out, 7, []*experiments.Report{rep})
	chk.want[7]["table1"] += "x"
	chk.check(out, 7, []*experiments.Report{rep})
	chk.want[defaultSeed]["table1"] += "x"
	chk.check(out, defaultSeed, []*experiments.Report{rep})
	chk.check(out, defaultSeed, nil)
	if out.failed != 3 || out.attempted != 5 {
		t.Fatalf("after two mismatches and a missing report: %d of %d failed, want 3 of 5", out.failed, out.attempted)
	}
}

func TestPassSeeds(t *testing.T) {
	s := passSeeds(42, 8)
	if len(s) != 8 || s[0] != 42 {
		t.Fatalf("passSeeds(42, 8) = %v, want 8 seeds starting with 42", s)
	}
	for i, x := range s {
		if x < 0 || slices.Contains(s[:i], x) {
			t.Errorf("seed %d = %d: negative or repeated in %v", i, x, s)
		}
	}
	if !slices.Equal(passSeeds(42, 8), s) || slices.Equal(passSeeds(43, 8)[1:], s[1:]) {
		t.Error("derived seeds must repeat for a seed and differ between seeds")
	}
}

func TestDigestCheck(t *testing.T) {
	d := streamDigest{Events: 10, Admitted: 2, CarbonGrams: 1.5, AvgJCT: 3}
	off := d
	off.CarbonGrams = math.Nextafter(d.CarbonGrams, 2)

	out := newOutcome()
	recorded := digestCheck{want: &d}
	recorded.check(out, d)
	recorded.check(out, off)
	if out.attempted != 2 || out.failed != 1 {
		t.Fatalf("recorded digest: %d of %d failed, want 1 of 2", out.failed, out.attempted)
	}

	// Away from the default seed the first rep is the reference.
	out = newOutcome()
	var agree digestCheck
	agree.check(out, off)
	agree.check(out, off)
	agree.check(out, d)
	if out.attempted != 3 || out.failed != 1 {
		t.Fatalf("agreement: %d of %d failed, want 1 of 3", out.failed, out.attempted)
	}
}

// TestBenchmarkDocs checks that BENCHMARK.json and workloads.json agree:
// the same workloads, a definition of every end-to-end metric on every
// workload and a description of every per-layer metric.
func TestBenchmarkDocs(t *testing.T) {
	p, err := loadParams()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	for _, m := range bench.EndToEnd {
		for _, w := range workloadNames {
			if p.EndToEnd[m.Name][w] == "" {
				t.Errorf("workloads.json does not say what %s measures on %s", m.Name, w)
			}
		}
	}
	if len(p.EndToEnd) != len(bench.EndToEnd) {
		t.Errorf("workloads.json defines %d end-to-end metrics, BENCHMARK.json lists %d", len(p.EndToEnd), len(bench.EndToEnd))
	}
	for _, m := range bench.PerLayer {
		doc, ok := p.PerLayer[m.Name]
		if !ok || doc.How == "" || doc.Moves == "" || len(doc.On) == 0 {
			t.Errorf("workloads.json does not document per-layer metric %s", m.Name)
		}
		for _, w := range doc.On {
			if !slices.Contains(workloadNames, w) {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}
	if len(p.PerLayer) != len(bench.PerLayer) {
		t.Errorf("workloads.json documents %d per-layer metrics, BENCHMARK.json lists %d", len(p.PerLayer), len(bench.PerLayer))
	}
}

// TestSmoke runs every workload, untraced and traced, at a smoke size
// and checks that each prints exactly the metrics BENCHMARK.json lists,
// with its outputs correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	p, err := loadParams()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := loadBench(root)
	if err != nil {
		t.Fatal(err)
	}
	p.StreamFIFO.JobsPerRep, p.StreamFIFO.WarmupJobs = 2000, 200
	p.PaperArtifacts.Seeds = 2
	p.PlacementHTTP.WarmupRequests, p.PlacementHTTP.ProbeCalls = 20, 5
	seeds := map[string]int64{
		// The stream digests are recorded for the full size, so the
		// smoke streams check agreement between reps instead.
		"stream-fifo":     7,
		"paper-artifacts": defaultSeed, "placement-http": defaultSeed,
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: seeds[w], seconds: 700 * time.Millisecond, trace: traced,
				root: root, spansDir: t.TempDir()}
			out, err := p.run(w, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			defs := bench.PerLayer
			if !traced {
				out.metrics["setup_s"] = out.setup.Seconds()
				defs = bench.EndToEnd
			}
			line, err := p.resultFor(w, out, defs)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w, traced, line.Failed, line.Attempted, out.problems)
			}
			for name, v := range line.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", w, traced, name, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, name, v.Value)
				}
			}
		}
	}
}
