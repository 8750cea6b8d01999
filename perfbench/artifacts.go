package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"pcaps/internal/experiments"
)

// artifactParams describes the paper-artifacts workload: one
// experiments.RunAll pass over IDs in fast mode at the default
// parallelism.
type artifactParams struct {
	// IDs are the artifacts of a pass: every one registered when the
	// benchmark was written except hyperscale, whose single stream chain
	// would dominate the pass and which the stream workloads measure.
	IDs []string `json:"ids"`
	// Seeds is how many seeds a run's passes cycle through: the run's
	// seed and ones derived from it. A pass's cost moves with its seed,
	// by ±17% over eight seeds, so a run timed at one seed would measure
	// the seed as much as the program.
	Seeds int `json:"seeds"`
	// GoldenDir holds the recorded fast-mode text of each artifact at
	// the default seed, relative to the repository root.
	GoldenDir string `json:"golden_dir"`
	// Masked are artifacts whose digits are live timings; they are
	// compared with every number masked.
	Masked []string `json:"masked"`
}

// maskTimings collapses numbers, and the padding their width changes,
// the way the experiments golden test does for fig20.
var (
	numberRun = regexp.MustCompile(`[0-9][0-9.]*`)
	spaceRun  = regexp.MustCompile(` +`)
)

func maskTimings(s string) string {
	return spaceRun.ReplaceAllString(numberRun.ReplaceAllString(s, "#"), " ")
}

// artifactChecker compares each rendered report with its reference: the
// golden file at the default seed, else the first rendering seen at the
// report's seed.
type artifactChecker struct {
	p    artifactParams
	want map[int64]map[string]string
}

func newArtifactChecker(root string, p artifactParams) (*artifactChecker, error) {
	golden := map[string]string{}
	c := &artifactChecker{p: p, want: map[int64]map[string]string{defaultSeed: golden}}
	for _, id := range p.IDs {
		b, err := os.ReadFile(filepath.Join(root, p.GoldenDir, id+".txt"))
		if err != nil {
			return nil, fmt.Errorf("golden for %s: %w", id, err)
		}
		golden[id] = c.normal(id, string(b))
	}
	return c, nil
}

func (c *artifactChecker) normal(id, text string) string {
	if slices.Contains(c.p.Masked, id) {
		return maskTimings(text)
	}
	return text
}

// check counts one attempted operation per report and one failure per
// mismatch or missing report.
func (c *artifactChecker) check(out *outcome, seed int64, reps []*experiments.Report) {
	for i, id := range c.p.IDs {
		var r *experiments.Report
		if i < len(reps) {
			r = reps[i]
		}
		c.checkOne(out, seed, id, r)
	}
}

func (c *artifactChecker) checkOne(out *outcome, seed int64, id string, r *experiments.Report) {
	out.attempted++
	if r == nil || r.ID != id {
		out.fail("%s at seed %d: no report", id, seed)
		return
	}
	got := c.normal(id, r.Render())
	if c.want[seed] == nil {
		c.want[seed] = map[string]string{}
	}
	want, ok := c.want[seed][id]
	if !ok {
		c.want[seed][id] = got
		return
	}
	if got != want {
		out.fail("%s at seed %d: report differs from its reference", id, seed)
	}
}

// passSeeds returns the n seeds a run's passes cycle through: the run's
// seed, then seeds drawn from it by splitmix64.
func passSeeds(seed int64, n int) []int64 {
	seeds := []int64{seed}
	x := uint64(seed)
	for len(seeds) < n {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		seeds = append(seeds, int64((z^z>>31)>>1))
	}
	return seeds
}

// heapWatch samples the live heap on a ticker until stopped.
type heapWatch struct {
	base uint64
	stop chan struct{}
	done chan uint64
}

// watchHeap collects garbage, takes the live heap as the baseline and
// starts sampling.
func watchHeap(every time.Duration) *heapWatch {
	runtime.GC()
	h := &heapWatch{base: liveHeap(), stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMiB stops the sampler and returns the highest live heap it saw
// above the baseline.
func (h *heapWatch) peakMiB() float64 {
	close(h.stop)
	return float64(<-h.done-h.base) / (1 << 20)
}

// runArtifacts is the paper-artifacts workload.
func runArtifacts(o options, p artifactParams) (*outcome, error) {
	out := newOutcome()
	c0 := cpuTime()
	known := experiments.IDs()
	for _, id := range p.IDs {
		if !slices.Contains(known, id) {
			return nil, fmt.Errorf("artifact %s is not registered", id)
		}
	}
	chk, err := newArtifactChecker(o.root, p)
	if err != nil {
		return nil, err
	}
	pass := func(seed int64) (wall, cpu time.Duration, err error) {
		c0, t := cpuTime(), time.Now()
		reps, err := experiments.RunAll(p.IDs, experiments.Options{Fast: true, Seed: seed})
		wall, cpu = time.Since(t), cpuTime()-c0
		chk.check(out, seed, reps)
		return wall, cpu, err
	}
	// The warm-up pass fills the trace cache. It takes the default seed
	// whatever the run's, so that set-up does the same work on every run,
	// and it is checked against the goldens.
	if _, _, err := pass(defaultSeed); err != nil {
		return nil, err
	}
	runtime.GC()
	out.setup = cpuTime() - c0
	if o.setupOnly {
		return out, nil
	}

	// Passes cycle through the seeds, so each seed's passes spread over
	// the whole run. A traced run follows each untraced pass, the
	// overhead baseline, with a traced one at the same seed, so that a
	// machine slowing down mid-run does not show as tracing overhead.
	seeds := passSeeds(o.seed, p.Seeds)
	walls := make([][]float64, len(seeds))
	cpus := make([][]float64, len(seeds))
	rec := newRecorder()
	var all, peaks, tracedWalls []float64
	var render time.Duration
	gcTraced := 0.0
	t0 := time.Now()
	for n := 0; n < len(seeds) || time.Since(t0) < o.seconds; n++ {
		k := n % len(seeds)
		h := watchHeap(5 * time.Millisecond)
		wall, cpu, err := pass(seeds[k])
		peak := h.peakMiB()
		if err != nil {
			return nil, err
		}
		walls[k] = append(walls[k], wall.Seconds())
		cpus[k] = append(cpus[k], cpu.Seconds())
		all = append(all, wall.Seconds())
		peaks = append(peaks, peak)
		if !o.trace {
			continue
		}
		gc0, t := gcCPUSeconds(), time.Now()
		reps, err := experiments.RunAll(p.IDs, experiments.Options{Fast: true, Seed: seeds[k]})
		end := time.Now()
		if err != nil {
			return nil, err
		}
		gcTraced += gcCPUSeconds() - gc0
		passID := rec.record("experiments.RunAll", 0, 0, t, end)
		tracedWalls = append(tracedWalls, end.Sub(t).Seconds())
		for _, r := range reps {
			t := time.Now()
			_ = r.Render()
			render += time.Since(t)
			rec.record("result.Render", passID, 0, t, time.Now())
		}
		chk.check(out, seeds[k], reps)
	}
	out.reps = len(all)
	lat := slices.Clone(all)
	slices.Sort(lat)
	for i := range lat {
		lat[i] *= 1e3
	}
	// A pass's wall and CPU time are the medians over its seed's passes,
	// averaged over the seeds.
	var passWall, passCPU float64
	for k := range seeds {
		passWall += median(walls[k]) / float64(len(seeds))
		passCPU += median(cpus[k]) / float64(len(seeds))
	}
	ids := float64(len(p.IDs))
	if !o.trace {
		out.figure("artifacts_pass_s", passWall, "s")
		out.endToEnd(ids/passCPU, passWall*1e3, lat,
			fmt.Sprintf("wall time of one RunAll pass, which every report of the pass waits for, median per seed averaged over %d seeds", len(seeds)), median(peaks))
		return out, nil
	}
	out.wallFigures(ids/passWall, passWall*1e3, lat)
	passes := float64(len(tracedWalls))
	out.metrics["runtime.gc_cpu_s"] = gcTraced / passes
	out.metrics["trace.overhead_s"] = median(tracedWalls) - median(all)
	out.metrics["result.render_s"] = render.Seconds() / passes

	// Each artifact alone on one worker, at the run's seed: its own cost,
	// free of the pass's scheduling.
	serial := map[string]float64{}
	var sum float64
	for _, id := range p.IDs {
		t := time.Now()
		r, err := experiments.Run(id, experiments.Options{Fast: true, Seed: o.seed, Parallel: 1})
		d := time.Since(t)
		if err != nil {
			return nil, err
		}
		rec.record("experiments.Run/"+id, 0, 0, t, t.Add(d))
		chk.checkOne(out, o.seed, id, r)
		serial[id] = d.Seconds()
		sum += d.Seconds()
		out.metrics["experiments."+id+"_s"] = d.Seconds()
	}
	workers := runtime.GOMAXPROCS(0)
	own := median(walls[0])
	out.metrics["experiments.pool_efficiency"] = sum / (own * float64(workers))
	out.notes = append(out.notes, fmt.Sprintf("pool: %d workers, serial sum %.3fs, pass median %.3fs at seed %d", workers, sum, own, o.seed))
	order := slices.Clone(p.IDs)
	sort.SliceStable(order, func(i, j int) bool { return serial[order[i]] > serial[order[j]] })
	for _, id := range order {
		out.layers = append(out.layers, layerRow{"experiments", "Run(" + id + ", Parallel 1)", 1, serial[id], sum})
	}
	out.layers = append(out.layers, layerRow{"result", "Report.Render, per pass", ids, out.metrics["result.render_s"], sum})
	out.shareOf = "the serial sum of artifact times, which a pass spreads over its workers"
	return out, rec.write(o.spansDir, fmt.Sprintf("paper-artifacts-seed%d", o.seed))
}
