// Quickstart: schedule a small batch of data processing jobs on a
// simulated cluster with and without carbon-awareness, and print the
// carbon/completion-time trade-off.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

func main() {
	// 1. A carbon-intensity trace: the German grid, synthesized to the
	//    paper's Table 1 statistics. One sample = one grid-hour = 60 s
	//    of experiment time.
	spec, err := carbon.GridByName("DE")
	if err != nil {
		log.Fatal(err)
	}
	trace := carbon.Synthesize(spec, 2000, 60, 1)

	// 2. A workload: 20 TPC-H-like query DAGs arriving as a Poisson
	//    process (mean gap 30 s). You can also build DAGs by hand:
	b := dag.NewBuilder(0, "hand-built")
	scan := b.Stage("scan", 8, 4) // 8 tasks × 4 s
	agg := b.Stage("agg", 2, 6)
	b.Edge(scan, agg)
	custom := b.MustBuild()
	fmt.Printf("hand-built job: %d stages, %.0f s of work, %.0f s critical path\n\n",
		len(custom.Stages), custom.TotalWork(), custom.CriticalPathLength())

	jobs, err := workload.Generate(workload.GenConfig{N: 20, Mix: workload.MixTPCH, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// 3. A cluster: 50 executors, Spark-style executor retention.
	cfg := sim.Config{
		NumExecutors:  50,
		Trace:         trace,
		MoveDelay:     1,
		HoldExecutors: true,
		IdleTimeout:   60,
		Seed:          1,
	}

	// 4. Schedulers: the carbon-agnostic Decima-like policy, PCAPS
	//    wrapping it with moderate carbon-awareness (γ = 0.5), and CAP
	//    wrapping it with a minimum quota of 10 machines.
	run := func(s sim.Scheduler) *sim.Result {
		res, err := sim.Run(cfg, jobs, s)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	decima := run(sched.NewDecima(1))
	pcaps := run(sched.NewPCAPS(sched.NewDecima(1), 0.5, 1))
	cap := run(sched.NewCAP(sched.NewDecima(1), 10))

	fmt.Printf("%-22s %10s %10s %10s %10s\n", "scheduler", "carbon(g)", "ECT(s)", "avgJCT(s)", "deferrals")
	for _, r := range []*sim.Result{decima, pcaps, cap} {
		fmt.Printf("%-22s %10.1f %10.0f %10.0f %10d\n",
			r.Scheduler, r.CarbonGrams, r.ECT, r.AvgJCT, r.Deferrals)
	}
	fmt.Printf("\nPCAPS saved %.1f%% carbon vs Decima for a %.1f%% ECT change.\n",
		100*(decima.CarbonGrams-pcaps.CarbonGrams)/decima.CarbonGrams,
		100*(pcaps.ECT-decima.ECT)/decima.ECT)
}
