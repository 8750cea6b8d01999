// tradeoff-sweep: the configurable carbon/completion-time trade-off of
// PCAPS (γ) and CAP (B) on one grid — the Fig 7/8/11/12 story, including
// the Fig 13 comparison of the two frontiers.
//
//	go run ./examples/tradeoff-sweep
package main

import (
	"fmt"
	"log"

	"pcaps/internal/carbon"
	"pcaps/internal/metrics"
	"pcaps/internal/scenario"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

func main() {
	spec, err := carbon.GridByName("DE")
	if err != nil {
		log.Fatal(err)
	}
	tr := carbon.Synthesize(spec, 3000, 60, 42)
	jobs, err := workload.Generate(workload.GenConfig{N: 50, Mix: workload.MixTPCH, Seed: 23})
	if err != nil {
		log.Fatal(err)
	}
	cfg := scenario.PaperSimConfig(false, tr, 1)
	run := func(s sim.Scheduler) *sim.Result {
		res, err := sim.Run(cfg, jobs, s)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base := run(sched.NewDecima(3))

	fmt.Println("PCAPS: carbon-awareness γ sweep (vs Decima)")
	fmt.Printf("%8s %14s %12s %10s\n", "γ", "carbon red.", "rel. ECT", "deferrals")
	var pcapsFrontier []metrics.Point
	for _, g := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		r := run(sched.NewPCAPS(sched.NewDecima(3), g, 3))
		red := 100 * (base.CarbonGrams - r.CarbonGrams) / base.CarbonGrams
		fmt.Printf("%8.1f %13.1f%% %12.3f %10d\n", g, red, r.ECT/base.ECT, r.Deferrals)
		pcapsFrontier = append(pcapsFrontier, metrics.Point{X: r.ECT / base.ECT, Y: red})
	}

	fmt.Println("\nCAP-Decima: minimum-quota B sweep (vs Decima)")
	fmt.Printf("%8s %14s %12s\n", "B", "carbon red.", "rel. ECT")
	var capFrontier []metrics.Point
	for _, b := range []int{5, 20, 40, 60, 80} {
		r := run(sched.NewCAP(sched.NewDecima(3), b))
		red := 100 * (base.CarbonGrams - r.CarbonGrams) / base.CarbonGrams
		fmt.Printf("%8d %13.1f%% %12.3f\n", b, red, r.ECT/base.ECT)
		capFrontier = append(capFrontier, metrics.Point{X: r.ECT / base.ECT, Y: red})
	}

	// The Fig 13 comparison: at each CAP operating point, find the
	// cheapest PCAPS point achieving at least the same savings and
	// compare the ECT each method pays.
	fmt.Println("\nmatched-savings frontier comparison (paper Fig 13):")
	for _, c := range capFrontier {
		bestECT := -1.0
		for _, p := range pcapsFrontier {
			if p.Y >= c.Y-1 && (bestECT < 0 || p.X < bestECT) {
				bestECT = p.X
			}
		}
		if bestECT < 0 {
			continue
		}
		fmt.Printf("  at ≥%4.1f%% savings: PCAPS pays ECT %.3f vs CAP-Decima %.3f\n", c.Y, bestECT, c.X)
	}
	fmt.Println("PCAPS's relative-importance signal buys the better trade-off at high savings.")
}
