package scenario

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/sched"
	"pcaps/internal/seed"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

func TestTrialTraceWindows(t *testing.T) {
	full, err := Sources{}.Trace(ClusterSpec{Grid: "DE"}, 4000, carbon.SynthSeed(3, "DE"))
	if err != nil {
		t.Fatal(err)
	}
	tr := TrialWindow(full, 100, seed.Derive(3, "DE", 0))
	if len(tr.Values) != 100 {
		t.Fatalf("window = %d samples", len(tr.Values))
	}
	// Different cells land at different offsets (with high probability).
	a := TrialWindow(full, 100, seed.Derive(3, "DE", 1))
	b := TrialWindow(full, 100, seed.Derive(3, "DE", 2))
	same := true
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("trial windows identical across cells")
	}
	// The same cell always sees the same window, no matter how many other
	// draws happened in between — the property parallel execution needs.
	c := TrialWindow(full, 100, seed.Derive(3, "DE", 1))
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			t.Fatal("same cell produced different windows")
		}
	}
}

func TestForEachCoversAllCellsOnce(t *testing.T) {
	for _, parallel := range []int{1, 3, 16} {
		const n = 100
		counts := make([]int32, n)
		var mu sync.Mutex
		NewPool(parallel).ForEach(n, func(i int) { mu.Lock(); counts[i]++; mu.Unlock() })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parallel=%d: cell %d ran %d times", parallel, i, c)
			}
		}
	}
	NewPool(4).ForEach(0, func(int) { t.Fatal("fn called for n=0") })
}

// TestForEachSharedBudget pins the bound's meaning: nested fan-outs
// draw extra workers from one pool, so total concurrency stays within
// the requested bound instead of multiplying per level.
func TestForEachSharedBudget(t *testing.T) {
	p := NewPool(3)
	var cur, peak atomic.Int64
	var inner func(depth int)
	inner = func(depth int) {
		p.ForEach(4, func(int) {
			if depth > 0 {
				inner(depth - 1)
				return
			}
			// Only leaf cells count: an ancestor frame is blocked in the
			// recursive call, so each goroutine contributes at most one.
			c := cur.Add(1)
			for {
				old := peak.Load()
				if c <= old || peak.CompareAndSwap(old, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
	}
	inner(2)
	if got := peak.Load(); got > 3 {
		t.Fatalf("peak concurrency %d exceeds the requested bound of 3", got)
	}
}

func TestForEachPropagatesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate")
		}
	}()
	NewPool(4).ForEach(8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}

func deTrace(t testing.TB) *carbon.Trace {
	t.Helper()
	spec, err := carbon.GridByName("DE")
	if err != nil {
		t.Fatal(err)
	}
	return carbon.Synthesize(spec, 3000, 60, 17)
}

// mustSim runs one simulation, failing the test on an engine error.
func mustSim(t testing.TB, cfg sim.Config, jobs []*dag.Job, s sim.Scheduler) *sim.Result {
	t.Helper()
	res, err := sim.Run(cfg, jobs, s)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return res
}

// TestPaperConfig pins every field of the paper's two environments: the
// §5.2 simulator and the §6.3 prototype (50 workers × 2 executor pods).
func TestPaperConfig(t *testing.T) {
	tr := deTrace(t)
	for _, tc := range []struct {
		proto bool
		want  sim.Config
	}{
		{false, sim.Config{NumExecutors: 100, Trace: tr, MoveDelay: 1, HoldExecutors: true, IdleTimeout: 60}},
		{true, sim.Config{NumExecutors: 100, Trace: tr, MoveDelay: 3, PerJobCap: 25, HoldExecutors: true, IdleTimeout: 60}},
	} {
		if got := PaperSimConfig(tc.proto, tr); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("PaperSimConfig(proto=%t) = %+v, want %+v", tc.proto, got, tc.want)
		}
	}
}

func TestPrototypeTable2Shape(t *testing.T) {
	// The Table 2 relationships on one trial: Decima ≈ default in
	// carbon (both are pod-bound); CAP and PCAPS reduce carbon by >10%
	// with bounded ECT increases.
	tr := deTrace(t)
	jobs, err := workload.Generate(workload.GenConfig{N: 30, Mix: workload.MixTPCH, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperSimConfig(true, tr)

	def := mustSim(t, cfg, jobs, sched.NewKubeDefault())
	dec := mustSim(t, cfg, jobs, sched.NewDecima(3))
	capRes := mustSim(t, cfg, jobs, sched.NewCAP(sched.NewKubeDefault(), 20))
	pc := mustSim(t, cfg, jobs, sched.NewPCAPS(sched.NewDecima(3), 0.5, 3))
	if math.Abs(dec.CarbonGrams-def.CarbonGrams) > 0.15*def.CarbonGrams {
		t.Fatalf("Decima carbon %v too far from default %v", dec.CarbonGrams, def.CarbonGrams)
	}
	if capRes.CarbonGrams > 0.9*def.CarbonGrams {
		t.Fatalf("CAP carbon %v did not reduce ≥10%% vs default %v", capRes.CarbonGrams, def.CarbonGrams)
	}
	if pc.CarbonGrams > 0.9*def.CarbonGrams {
		t.Fatalf("PCAPS carbon %v did not reduce ≥10%% vs default %v", pc.CarbonGrams, def.CarbonGrams)
	}
	if pc.ECT > 1.25*def.ECT {
		t.Fatalf("PCAPS ECT %v blew past default %v", pc.ECT, def.ECT)
	}
	if capRes.ECT < pc.ECT*0.95 {
		t.Fatalf("CAP ECT %v should not beat PCAPS %v (Table 2 ordering)", capRes.ECT, pc.ECT)
	}
}

func TestFig15FidelityContrast(t *testing.T) {
	// Appendix A.1.2 / Fig 15: the prototype's capped default behaviour
	// improves on standalone FIFO in both carbon and average JCT for an
	// identical batch.
	tr := deTrace(t)
	jobs, err := workload.Generate(workload.GenConfig{N: 50, Mix: workload.MixTPCH, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	standalone := PaperSimConfig(true, tr)
	standalone.PerJobCap = 0 // standalone FIFO over-assigns freely
	fifo := mustSim(t, standalone, jobs, &sched.FIFO{})
	proto := mustSim(t, PaperSimConfig(true, tr), jobs, sched.NewKubeDefault())
	if proto.CarbonGrams >= fifo.CarbonGrams {
		t.Fatalf("prototype carbon %v not below standalone %v", proto.CarbonGrams, fifo.CarbonGrams)
	}
	if proto.AvgJCT > fifo.AvgJCT*1.05 {
		t.Fatalf("prototype JCT %v worse than standalone %v", proto.AvgJCT, fifo.AvgJCT)
	}
}
