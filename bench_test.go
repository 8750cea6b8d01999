// Package pcaps_test holds the benchmark harness of deliverable (d): one
// testing.B benchmark per table and figure of the paper's evaluation.
// Each benchmark regenerates its artifact through the experiment runners
// in fast mode and reports the artifact's key headline numbers as custom
// metrics, so `go test -bench=. -benchmem` doubles as a one-shot
// reproduction sweep. Full-fidelity runs (all grids, paper trial counts)
// are driven by `go run ./cmd/pcapsim -exp all`.
package pcaps_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/carbonapi"
	"pcaps/internal/dag"
	"pcaps/internal/experiments"
	"pcaps/internal/federation"
	"pcaps/internal/metrics"
	"pcaps/internal/optimal"
	"pcaps/internal/placement"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// benchArtifact runs one artifact per benchmark iteration, fanning its
// cells out over the default worker pool (Parallel: 0 = GOMAXPROCS) —
// the same configuration `pcapsim -exp all` uses. Reports are identical
// at any parallelism, so the published metrics are comparable across
// machines and worker counts.
func benchArtifact(b *testing.B, id string) *experiments.Report {
	b.Helper()
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.Run(id, experiments.Options{Fast: true, Seed: 42})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return rep
}

// reportFirstPercent extracts the first "x.y%"-shaped number following a
// label in the report body and publishes it as a benchmark metric.
func reportFirstPercent(b *testing.B, rep *experiments.Report, label, metric string) {
	idx := strings.Index(rep.Body(), label)
	if idx < 0 {
		return
	}
	rest := rep.Body()[idx+len(label):]
	for _, field := range strings.Fields(rest) {
		field = strings.TrimSuffix(field, "%")
		if v, err := strconv.ParseFloat(field, 64); err == nil {
			b.ReportMetric(v, metric)
			return
		}
	}
}

func BenchmarkTable1TraceStats(b *testing.B) { benchArtifact(b, "table1") }
func BenchmarkTable2Prototype(b *testing.B) {
	rep := benchArtifact(b, "table2")
	reportFirstPercent(b, rep, "PCAPS", "pcaps_co2_red_%")
	reportFirstPercent(b, rep, "CAP", "cap_co2_red_%")
}
func BenchmarkTable3Simulator(b *testing.B) {
	rep := benchArtifact(b, "table3")
	reportFirstPercent(b, rep, "PCAPS", "pcaps_co2_red_%")
	reportFirstPercent(b, rep, "Decima", "decima_co2_red_%")
}

func BenchmarkFig1Motivating(b *testing.B)      { benchArtifact(b, "fig1") }
func BenchmarkFig5Snapshots(b *testing.B)       { benchArtifact(b, "fig5") }
func BenchmarkFig6Occupancy(b *testing.B)       { benchArtifact(b, "fig6") }
func BenchmarkFig7PCAPSSweepProto(b *testing.B) { benchArtifact(b, "fig7") }
func BenchmarkFig8CAPSweepProto(b *testing.B)   { benchArtifact(b, "fig8") }
func BenchmarkFig9PerJob(b *testing.B)          { benchArtifact(b, "fig9") }
func BenchmarkFig10GridsProto(b *testing.B)     { benchArtifact(b, "fig10") }
func BenchmarkFig11PCAPSSweepSim(b *testing.B)  { benchArtifact(b, "fig11") }
func BenchmarkFig12CAPSweepSim(b *testing.B)    { benchArtifact(b, "fig12") }
func BenchmarkFig13Frontier(b *testing.B)       { benchArtifact(b, "fig13") }
func BenchmarkFig14GridsSim(b *testing.B)       { benchArtifact(b, "fig14") }
func BenchmarkFig15Fidelity(b *testing.B)       { benchArtifact(b, "fig15") }
func BenchmarkFig16JobsSim(b *testing.B)        { benchArtifact(b, "fig16") }
func BenchmarkFig17JobsProto(b *testing.B)      { benchArtifact(b, "fig17") }
func BenchmarkFig18ArrivalSim(b *testing.B)     { benchArtifact(b, "fig18") }
func BenchmarkFig19ArrivalProto(b *testing.B)   { benchArtifact(b, "fig19") }
func BenchmarkFig20Latency(b *testing.B)        { benchArtifact(b, "fig20") }

// BenchmarkAllArtifactsOnce regenerates every artifact once per
// iteration through the parallel engine (RunAll fans artifacts and
// their cells out over all cores) — the end-to-end cost of
// `pcapsim -exp all -fast`.
func BenchmarkAllArtifactsOnce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(experiments.IDs(), experiments.Options{Fast: true, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllArtifactsOnceSerial is the same pass pinned to one worker
// (Parallel: 1). The ratio against BenchmarkAllArtifactsOnce is the
// engine's parallel speedup on the benchmarking machine.
func BenchmarkAllArtifactsOnceSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(experiments.IDs(), experiments.Options{Fast: true, Seed: 42, Parallel: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Example output shapes are stable enough to assert in a smoke test; the
// benchmark harness is also exercised by `go test` itself.
func TestBenchHarnessSmoke(t *testing.T) {
	rep, err := experiments.Run("table3", experiments.Options{Fast: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Body(), "PCAPS") {
		t.Fatal("table3 missing PCAPS row")
	}
	fmt.Println(rep.Render())
}

// BenchmarkAblationSuite regenerates the DESIGN.md design-choice
// ablations (threshold shape, importance signal, parallelism scaling,
// forecast error, suspend-resume baseline).
func BenchmarkAblationSuite(b *testing.B) { benchArtifact(b, "ablation") }

// Arrival-generation microbenchmarks: the open-loop workload path
// (DESIGN.md §9). BenchmarkArrivalGen times batch generation under the
// thinning-heavy burst shape with heterogeneous classes — the overload
// artifact's per-cell generation cost. BenchmarkOverloadLoop times one
// full open-loop cell: generate, simulate, and reduce to backlog/JCT
// metrics.

func BenchmarkArrivalGen(b *testing.B) {
	proc, err := arrivals.New(arrivals.Spec{
		Kind: arrivals.KindBurst, RPS: 1.0 / 60, PeakRPS: 1.0 / 3, PeriodSec: 600, BurstSec: 60,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.GenConfig{
		N: 200, Arrivals: proc, Seed: 42,
		Classes: []workload.Class{
			{Name: "interactive", Mix: workload.MixTPCH, Weight: 3},
			{Name: "batch", Mix: workload.MixAlibaba, Weight: 1, WorkScale: 2},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverloadLoop(b *testing.B) {
	proc, err := arrivals.New(arrivals.Spec{
		Kind: arrivals.KindBurst, RPS: 1.0 / 60, PeakRPS: 1.0 / 3, PeriodSec: 600, BurstSec: 60,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchTrace(b)
	b.ReportAllocs()
	var backlog float64
	for i := 0; i < b.N; i++ {
		jobs, err := workload.Generate(workload.GenConfig{
			N: 80, Arrivals: proc, Mix: workload.MixBoth, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(cfg, jobs, &sched.FIFO{})
		if err != nil {
			b.Fatal(err)
		}
		arr := make([]float64, len(jobs))
		cps := make([]float64, len(jobs))
		for k, j := range jobs {
			arr[k] = j.Arrival
			cps[k] = j.CriticalPathLength()
		}
		backlog = metrics.SummarizeOpenLoop(arr, res.JCTs, cps).MeanBacklog
	}
	b.ReportMetric(backlog, "mean-backlog")
}

// Hyperscale streaming benchmarks (DESIGN.md §10): drive sim.RunStream
// through capacity-matched constant-arrival cells and pin the two scale
// claims as metrics — jobs/sec (throughput) and peak_heap_mb (memory
// tracks the in-flight population, not the job count; see
// hyperscaleStreamPeak in scale_test.go for the sampling harness). The
// Smoke variant is small enough for the raced 1-iteration CI pass; the
// 1M cell is the headline BENCH number.

func benchHyperscaleStream(b *testing.B, jobs, execs int) {
	b.ReportAllocs()
	var peak float64
	for i := 0; i < b.N; i++ {
		peak = hyperscaleStreamPeak(b, jobs, execs, &sched.FIFO{})
	}
	b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	b.ReportMetric(peak, "peak_heap_mb")
}

func BenchmarkHyperscaleStreamSmoke(b *testing.B) { benchHyperscaleStream(b, 2_000, 200) }
func BenchmarkHyperscaleStream100k(b *testing.B)  { benchHyperscaleStream(b, 100_000, 1000) }
func BenchmarkHyperscaleStream1M(b *testing.B)    { benchHyperscaleStream(b, 1_000_000, 1000) }

// BenchmarkStreamFIFOScaling streams 20k FIFO jobs at 40% utilization
// on K = 200, 1000 and 5000 executors. An event's engine cost does not
// depend on K, so jobs/sec should fall only as much as the busier
// cluster's deeper event heap and larger in-flight population cost.
func BenchmarkStreamFIFOScaling(b *testing.B) {
	for _, k := range []int{200, 1000, 5000} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) { benchHyperscaleStream(b, 20_000, k) })
	}
}

// Scheduling-loop microbenchmarks: unlike the artifact benchmarks above,
// these time the simulator's hot path directly — many small stages, high
// executor counts, and executor-holding on and off — with allocs/op
// reported, so regressions in the incremental scheduling core (the
// runnable index, free lists, and epoch-cached views) surface as
// allocation or time deltas rather than as noise inside a whole artifact.

// schedBatch builds a batch of fan-out jobs: one root stage feeding
// width-1 parallel siblings, each a handful of short tasks. Small stages
// and many of them maximize scheduling events per simulated second.
func schedBatch(nJobs, width, tasks int, dur, interarrival float64) []*dag.Job {
	jobs := make([]*dag.Job, 0, nJobs)
	for i := 0; i < nJobs; i++ {
		b := dag.NewBuilder(i, "bench")
		root := b.Stage("", tasks, dur)
		for s := 1; s < width; s++ {
			b.Edge(root, b.Stage("", tasks, dur))
		}
		j := b.MustBuild()
		j.Arrival = float64(i) * interarrival
		jobs = append(jobs, j)
	}
	return jobs
}

func benchSchedLoop(b *testing.B, cfg sim.Config, jobs []*dag.Job, mk func() sim.Scheduler) {
	b.Helper()
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg, jobs, mk())
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/op")
}

func benchTrace(b *testing.B) sim.Config {
	vals := make([]float64, 3600)
	for i := range vals {
		vals[i] = 300
	}
	tr, err := carbon.New("flat", 60, vals)
	if err != nil {
		b.Fatal(err)
	}
	return sim.Config{NumExecutors: 100, Trace: tr}
}

// BenchmarkSchedLoopManySmallStages is the canonical hot-path shape: a
// wide batch of small stages under FIFO on 100 executors.
func BenchmarkSchedLoopManySmallStages(b *testing.B) {
	cfg := benchTrace(b)
	jobs := schedBatch(60, 12, 3, 5, 40)
	benchSchedLoop(b, cfg, jobs, func() sim.Scheduler { return &sched.FIFO{} })
}

// BenchmarkSchedLoopHighK scales the executor count to 500, stressing
// the executor scans that the free-list refactor removes.
func BenchmarkSchedLoopHighK(b *testing.B) {
	cfg := benchTrace(b)
	cfg.NumExecutors = 500
	jobs := schedBatch(60, 12, 3, 5, 40)
	benchSchedLoop(b, cfg, jobs, func() sim.Scheduler { return &sched.FIFO{} })
}

// BenchmarkSchedLoopDecima runs the probabilistic scheduler, whose Pick
// recomputes a distribution over the runnable view on every call.
func BenchmarkSchedLoopDecima(b *testing.B) {
	cfg := benchTrace(b)
	jobs := schedBatch(60, 12, 3, 5, 40)
	benchSchedLoop(b, cfg, jobs, func() sim.Scheduler { return sched.NewDecima(7) })
}

// BenchmarkSchedLoopHoldOff / HoldOn compare the shared-pool and
// executor-retention regimes on the same batch. The hold benchmarks use
// a small cluster (K=8) and 48-task stages so held executors serve several
// task waves per stage — the regime where the hold-mode dispatch path
// and its per-task expiry events dominate.
func BenchmarkSchedLoopHoldOff(b *testing.B) {
	cfg := benchTrace(b)
	cfg.NumExecutors = 8
	jobs := schedBatch(8, 5, 48, 2, 120)
	benchSchedLoop(b, cfg, jobs, func() sim.Scheduler { return &sched.FIFO{} })
}

func BenchmarkSchedLoopHoldOn(b *testing.B) {
	cfg := benchTrace(b)
	cfg.NumExecutors = 8
	cfg.HoldExecutors = true
	cfg.IdleTimeout = 60
	jobs := schedBatch(8, 5, 48, 2, 120)
	benchSchedLoop(b, cfg, jobs, func() sim.Scheduler { return &sched.FIFO{} })
}

// Federation microbenchmarks: the multi-grid routing layer in front of
// the member clusters. BenchmarkFederationSchedLoop times a whole
// federated run (routing fold + K member simulations);
// BenchmarkFederationRouting isolates the per-arrival router decision,
// the only new per-job cost the layer adds on top of the engine.

func benchFederationClusters(b *testing.B) []federation.ClusterSpec {
	b.Helper()
	mk := func(grid string, base, swing float64) federation.ClusterSpec {
		vals := make([]float64, 3600)
		for i := range vals {
			if i%24 < 12 {
				vals[i] = base - swing
			} else {
				vals[i] = base + swing
			}
		}
		tr, err := carbon.New(grid, 60, vals)
		if err != nil {
			b.Fatal(err)
		}
		return federation.ClusterSpec{
			Grid:         grid,
			Trace:        tr,
			Config:       sim.Config{NumExecutors: 50},
			NewScheduler: func(int64) sim.Scheduler { return &sched.FIFO{} },
		}
	}
	return []federation.ClusterSpec{
		mk("low", 120, 60),
		mk("mid", 350, 150),
		mk("high", 650, 80),
	}
}

func BenchmarkFederationSchedLoop(b *testing.B) {
	clusters := benchFederationClusters(b)
	jobs := schedBatch(45, 8, 4, 5, 40)
	b.ReportAllocs()
	var grams float64
	for i := 0; i < b.N; i++ {
		f := &federation.Federation{Clusters: clusters, Router: federation.NewForecastAware(), Seed: 42}
		res, err := f.Run(jobs)
		if err != nil {
			b.Fatal(err)
		}
		grams = res.Summary.CarbonGrams
	}
	b.ReportMetric(grams, "gCO2eq")
}

func BenchmarkFederationRouting(b *testing.B) {
	r := federation.NewForecastAware()
	states := []federation.ClusterState{
		{Index: 0, Intensity: 120, Low: 90, High: 180},
		{Index: 1, Intensity: 350, Low: 200, High: 500},
		{Index: 2, Intensity: 650, Low: 570, High: 730},
		{Index: 3, Intensity: 90, Low: 60, High: 140},
		{Index: 4, Intensity: 420, Low: 300, High: 520},
		{Index: 5, Intensity: 700, Low: 590, High: 800},
	}
	job := federation.JobInfo{Arrival: 0, Work: 1200, CriticalPath: 90}
	b.ReportAllocs()
	r.Reset()
	for i := 0; i < b.N; i++ {
		_ = r.Route(job, states)
	}
}

// Solver microbenchmarks: the Fig. 1 fork-join instance (the largest DP
// the artifact suite solves) exercised directly, with allocs/op
// reported. These pin the packed-state scratch discipline in
// internal/optimal: the whole search should reuse the solver's
// preallocated buffers, so allocs/op stays flat as b.N grows.

// benchInstance rebuilds the Fig. 1 motivating instance: a fork-join DAG
// with a long bottleneck chain, K=4 machines, and an 18-hour carbon
// trace with a pronounced early peak.
func benchInstance() optimal.Instance {
	bld := dag.NewBuilder(0, "bench-opt")
	src := bld.Stage("src", 1, 1)
	sink := bld.Stage("sink", 1, 2)
	for i := 0; i < 6; i++ {
		side := bld.Stage(fmt.Sprintf("side%d", i), 1, 2)
		bld.Edge(src, side).Edge(side, sink)
	}
	green := bld.Stage("green", 1, 3)
	purple := bld.Stage("purple", 1, 3)
	bld.Edge(src, green).Edge(green, purple).Edge(purple, sink)
	carbonTrace := []float64{
		250, 380, 520, 650, 650, 600, 450, 350, 280,
		230, 210, 200, 200, 210, 230, 260, 300, 340,
	}
	return optimal.Instance{Job: bld.MustBuild(), K: 4, Carbon: carbonTrace, Deadline: 18}
}

// BenchmarkTOpt times the makespan-optimal DP (time-optimal schedule)
// on the motivating instance.
func BenchmarkTOpt(b *testing.B) {
	inst := benchInstance()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optimal.TOpt(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCOpt times the carbon-optimal DP under the 18-hour deadline —
// the most expensive single solve in the artifact suite.
func BenchmarkCOpt(b *testing.B) {
	inst := benchInstance()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optimal.COpt(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepPrefixReuse measures the common-prefix group runner
// against the same sweep run policy-by-policy: one Decima baseline plus
// PCAPS at five γ settings over a shared (config, jobs) cell — the fig13
// frontier shape. The group variant simulates the shared decision prefix
// once and forks at the first divergent decision; the sequential variant
// re-simulates from scratch per policy. Their results are byte-identical
// (TestRunGroupMatchesSequential); the ns/op ratio is the prefix-reuse
// speedup.
func BenchmarkSweepPrefixReuse(b *testing.B) {
	gammas := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	mkScheds := func(seed int64) []sim.Scheduler {
		scheds := []sim.Scheduler{sched.NewDecima(seed)}
		for _, g := range gammas {
			scheds = append(scheds, sched.NewPCAPS(sched.NewDecima(seed), g, seed))
		}
		return scheds
	}
	cfg := benchTrace(b)
	cfg.Seed = 42
	jobs := schedBatch(40, 8, 4, 5, 40)

	b.Run("group", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunGroup(cfg, jobs, mkScheds(cfg.Seed)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range mkScheds(cfg.Seed) {
				if _, err := sim.Run(cfg, jobs, s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// placementSnapshot builds one contended mid-run snapshot for the
// placement benchmarks: several active jobs, a mix of busy and idle
// executors, captured through the same Observer hook the placement
// service's equivalence tests use.
func placementSnapshot(b *testing.B) *sim.Snapshot {
	b.Helper()
	jobs, err := workload.Generate(workload.GenConfig{N: 10, Arrivals: arrivals.Poisson{MeanSec: 25}, Mix: workload.MixBoth, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	tr := carbon.SynthesizeAll(48, 60, 42)["CAISO"]
	var snap *sim.Snapshot
	events := 0
	cfg := sim.Config{
		NumExecutors: 20,
		Trace:        tr,
		Seed:         42,
		Observer: func(c *sim.Cluster) {
			events++
			if snap == nil && events >= 30 && c.BusyCount() > 0 && len(c.ActiveJobs()) > 1 {
				snap = c.Snapshot()
			}
		},
	}
	if _, err := sim.Run(cfg, jobs, &sched.WeightedFair{}); err != nil {
		b.Fatal(err)
	}
	if snap == nil {
		b.Fatal("no snapshot captured")
	}
	return snap
}

var placementBenchSpecs = []sched.Spec{
	{Kind: "fifo"},
	{Kind: "decima"},
	{Kind: "cap", B: sched.Int(10)},
	{Kind: "pcaps", Gamma: sched.Float(0.9)},
}

// BenchmarkPlacementLocal measures the in-process decision path: one
// Pick per iteration on an already restored cluster (the restore is
// amortized setup, as it is for a server handling many policies on one
// snapshot). One sub-benchmark per policy kind.
func BenchmarkPlacementLocal(b *testing.B) {
	snap := placementSnapshot(b)
	for _, spec := range placementBenchSpecs {
		f, err := sched.Default().New(spec)
		if err != nil {
			b.Fatal(err)
		}
		cluster, err := snap.Restore()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec.Kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := cluster.Place(f(42))
				if p.Scheduler == "" {
					b.Fatal("empty placement")
				}
			}
		})
	}
	// restore measures the per-request snapshot decode cost the local
	// sub-benchmarks amortize away.
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := snap.Restore(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// reportLatencyPercentiles publishes p50/p99 of the collected per-call
// latencies as benchmark metrics (milliseconds).
func reportLatencyPercentiles(b *testing.B, lat []time.Duration) {
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(lat)-1))
		return float64(lat[idx].Nanoseconds()) / 1e6
	}
	b.ReportMetric(pct(0.50), "p50-ms")
	b.ReportMetric(pct(0.99), "p99-ms")
}

// BenchmarkPlacementHTTP measures the full wire path against an
// in-process carbonapi server over a keep-alive connection: marshal the
// request (snapshot included), POST /v1/placement, decode the decision.
// The single variant posts one policy per request; the batch variant
// amortizes the snapshot transfer over all four policies in one POST.
func BenchmarkPlacementHTTP(b *testing.B) {
	snap := placementSnapshot(b)
	srv := httptest.NewServer(carbonapi.NewServer(nil, carbonapi.WithPlacements(&placement.Service{})))
	defer srv.Close()
	// One shared client: connection reuse across iterations is the
	// deployment-realistic configuration (a scheduler polls repeatedly).
	client := carbonapi.NewClient(srv.URL)
	ctx := context.Background()

	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		lat := make([]time.Duration, 0, b.N)
		for i := 0; i < b.N; i++ {
			start := time.Now()
			p, err := client.Place(ctx, placementBenchSpecs[i%len(placementBenchSpecs)], 42, snap)
			lat = append(lat, time.Since(start))
			if err != nil {
				b.Fatal(err)
			}
			if p.Scheduler == "" {
				b.Fatal("empty placement")
			}
		}
		reportLatencyPercentiles(b, lat)
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		lat := make([]time.Duration, 0, b.N)
		for i := 0; i < b.N; i++ {
			start := time.Now()
			ps, err := client.PlaceBatch(ctx, placementBenchSpecs, 42, snap)
			lat = append(lat, time.Since(start))
			if err != nil {
				b.Fatal(err)
			}
			if len(ps) != len(placementBenchSpecs) {
				b.Fatalf("got %d decisions, want %d", len(ps), len(placementBenchSpecs))
			}
		}
		reportLatencyPercentiles(b, lat)
	})
}
