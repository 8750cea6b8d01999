package experiments

import (
	"fmt"

	"pcaps/internal/arrivals"
	"pcaps/internal/metrics"
	"pcaps/internal/result"
	"pcaps/internal/scenario"
	"pcaps/internal/sched"
	"pcaps/internal/seed"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// overloadShapes is the arrival-shape axis: the paper's Poisson batch
// plus the open-loop shapes that stress the cluster — a matched-rate
// deterministic stream, a rate ramp past capacity, periodic bursts, and
// a diurnal cycle. Rates are in jobs/second of experiment time.
var overloadShapes = []struct {
	name string
	spec arrivals.Spec
}{
	{"poisson", arrivals.Spec{Kind: arrivals.KindPoisson, MeanSec: 30}},
	{"constant", arrivals.Spec{Kind: arrivals.KindConstant, RPS: 1.0 / 15}},
	{"ramp", arrivals.Spec{Kind: arrivals.KindRamp, RPS: 1.0 / 60, PeakRPS: 1.0 / 6, PeriodSec: 1800}},
	{"burst", arrivals.Spec{Kind: arrivals.KindBurst, RPS: 1.0 / 60, PeakRPS: 1.0 / 3, PeriodSec: 600, BurstSec: 60}},
	{"diurnal", arrivals.Spec{Kind: arrivals.KindDiurnal, RPS: 1.0 / 60, PeakRPS: 1.0 / 6, PeriodSec: 1440}},
}

// overloadAgg accumulates one (shape, policy) cell's summaries across
// trials.
type overloadAgg struct {
	sum    metrics.OpenLoop
	carbon float64
	n      int
}

func (a *overloadAgg) add(s metrics.OpenLoop, carbonGrams float64) {
	a.sum.MeanBacklog += s.MeanBacklog
	a.sum.PeakBacklog += s.PeakBacklog
	a.sum.P50JCT += s.P50JCT
	a.sum.P99JCT += s.P99JCT
	a.sum.MeanQueueDelay += s.MeanQueueDelay
	a.sum.GoodputJobsPerHr += s.GoodputJobsPerHr
	a.carbon += carbonGrams
	a.n++
}

// runOverload compares FIFO, CAP, and PCAPS under every arrival shape
// on the DE grid, reporting open-loop queueing metrics: backlog depth,
// JCT quantiles, queueing delay beyond the critical path, goodput, and
// the carbon account. Each (shape, trial) cell runs the three policies
// as one common-prefix group over the shape's batch.
func runOverload(opt Options) (*result.Artifact, error) {
	e := newEnv(opt.scoped("DE"))
	trials := opt.Trials
	if trials <= 0 {
		trials = 3
	}
	n := opt.Jobs
	if n <= 0 {
		n = 80
	}
	if opt.Fast {
		trials = 1
		if opt.Jobs <= 0 {
			n = 30
		}
	}
	procs := make([]arrivals.Process, len(overloadShapes))
	for i, sh := range overloadShapes {
		p, err := arrivals.New(sh.spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: overload shape %s: %w", sh.name, err)
		}
		procs[i] = p
	}
	policyNames := []string{"fifo", "cap", "pcaps"}
	newScheds := func(seed int64) []sim.Scheduler {
		return []sim.Scheduler{
			&sched.FIFO{},
			sched.NewCAP(&sched.FIFO{}, sched.DefaultCAPB),
			sched.NewPCAPS(sched.NewDecima(seed), sched.DefaultPCAPSGamma, seed),
		}
	}

	// One cell per (shape, trial); the fold walks cells in matrix order,
	// so the artifact is identical at any parallelism.
	type overloadCell struct{ shape, trial int }
	var cells []overloadCell
	for si := range overloadShapes {
		for t := 0; t < trials; t++ {
			cells = append(cells, overloadCell{shape: si, trial: t})
		}
	}
	type cellOut struct {
		open   []metrics.OpenLoop
		carbon []float64
	}
	runs := make([]cellOut, len(cells))
	e.opt.pool.ForEach(len(cells), func(i int) {
		c := cells[i]
		cellSeed := seed.Derive(e.opt.Seed, "DE", int64(c.shape), int64(c.trial))
		jobs, err := workload.Generate(workload.GenConfig{
			N: n, Arrivals: procs[c.shape], Mix: workload.MixBoth, Seed: cellSeed,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: overload: %v", err))
		}
		arr := make([]float64, len(jobs))
		cps := make([]float64, len(jobs))
		for k, j := range jobs {
			arr[k] = j.Arrival
			cps[k] = j.CriticalPathLength()
		}
		tr := scenario.TrialWindow(e.traces["DE"], 60+n, cellSeed)
		cfg := scenario.PaperSimConfig(false, tr)
		group := mustRunGroup(cfg, jobs, newScheds(cellSeed)...)
		out := cellOut{
			open:   make([]metrics.OpenLoop, len(group)),
			carbon: make([]float64, len(group)),
		}
		for k, res := range group {
			out.open[k] = metrics.SummarizeOpenLoop(arr, res.JCTs, cps)
			out.carbon[k] = res.CarbonGrams
		}
		runs[i] = out
	})

	aggs := make([]overloadAgg, len(overloadShapes)*len(policyNames))
	for i, c := range cells {
		for k := range policyNames {
			aggs[c.shape*len(policyNames)+k].add(runs[i].open[k], runs[i].carbon[k])
		}
	}

	t := &result.Table{
		Name: "overload",
		Columns: []result.Column{
			{Name: "arrivals", Kind: result.KindString, Header: "arrivals", HeaderFormat: "%-9s", Format: "%-9s"},
			{Name: "scheduler", Kind: result.KindString, Header: "scheduler", HeaderFormat: " %-9s", Format: " %-9s"},
			{Name: "mean_backlog", Kind: result.KindFloat, Prec: 2, Header: "backlog", HeaderFormat: " %8s", Format: " %8.2f"},
			{Name: "peak_backlog", Kind: result.KindFloat, Prec: 1, Header: "peak", HeaderFormat: " %6s", Format: " %6.1f"},
			{Name: "p50_jct_s", Kind: result.KindFloat, Prec: 0, Header: "p50 JCT", HeaderFormat: " %8s", Format: " %8.0f"},
			{Name: "p99_jct_s", Kind: result.KindFloat, Prec: 0, Header: "p99 JCT", HeaderFormat: " %8s", Format: " %8.0f"},
			{Name: "queue_delay_s", Kind: result.KindFloat, Prec: 0, Header: "queue", HeaderFormat: " %7s", Format: " %7.0f"},
			{Name: "goodput_jobs_hr", Kind: result.KindFloat, Prec: 1, Header: "goodput/hr", HeaderFormat: " %10s", Format: " %10.1f"},
			{Name: "carbon_g", Kind: result.KindFloat, Prec: 0, Header: "carbon g", HeaderFormat: " %9s", Format: " %9.0f"},
		},
	}
	for si, sh := range overloadShapes {
		for k, pol := range policyNames {
			a := aggs[si*len(policyNames)+k]
			div := float64(a.n)
			t.Row(
				result.Str(sh.name), result.Str(pol),
				result.Float(a.sum.MeanBacklog/div), result.Float(a.sum.PeakBacklog/div),
				result.Float(a.sum.P50JCT/div), result.Float(a.sum.P99JCT/div),
				result.Float(a.sum.MeanQueueDelay/div), result.Float(a.sum.GoodputJobsPerHr/div),
				result.Float(a.carbon/div),
			)
		}
	}
	a := result.New()
	a.Textf("open-loop arrivals, DE grid, %d jobs, avg of %d trial(s):\n", n, trials)
	a.Add(t)
	a.Textf("backlog: time-weighted mean in-flight jobs; queue: mean JCT excess over the critical path\n")
	return a, nil
}
