// federation: the multi-grid federation layer end-to-end over HTTP — a
// carbonapi server replays three regional grids, member clusters fetch
// their trace windows through the API, and the job routers route on
// those fetched windows: each member's intensity and forecast bounds
// come from the same trace its simulation charges carbon against.
//
//	go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"pcaps/internal/carbon"
	"pcaps/internal/carbonapi"
	"pcaps/internal/federation"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

func main() {
	// Three regions with very different carbon profiles (Table 1):
	// CAISO's solar-driven midday lows, ON's near-clean hydro/nuclear
	// mix, DE's wide evening swings.
	grids := []string{"CAISO", "ON", "DE"}
	traces := map[string]*carbon.Trace{}
	for i, g := range grids {
		spec, err := carbon.GridByName(g)
		if err != nil {
			log.Fatal(err)
		}
		traces[g] = carbon.Synthesize(spec, 1000, 60, 42+int64(i)*1000003)
	}
	srv := httptest.NewServer(carbonapi.NewServer(traces))
	defer srv.Close()
	client := carbonapi.NewClient(srv.URL)
	fmt.Printf("carbon API serving %v on %s\n\n", grids, srv.URL)

	// Member clusters fetch their windows through the API, like the
	// prototype daemon would, instead of reading local traces.
	ctx := context.Background()
	clusters := make([]federation.ClusterSpec, len(grids))
	for i, g := range grids {
		window, err := client.FetchTrace(ctx, g, 0, 240)
		if err != nil {
			log.Fatal(err)
		}
		clusters[i] = federation.ClusterSpec{
			Name: g,
			Config: sim.Config{
				NumExecutors:  50,
				Trace:         window,
				MoveDelay:     1,
				HoldExecutors: true,
				IdleTimeout:   60,
			},
			NewScheduler: func(int64) sim.Scheduler { return &sched.FIFO{} },
		}
	}

	jobs, err := workload.Generate(workload.GenConfig{N: 30, Mix: workload.MixTPCH, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	routers := []federation.Router{
		federation.NewRoundRobin(),
		federation.NewLowestIntensity(),
		federation.NewForecastAware(),
	}
	fmt.Printf("routing %d jobs across %d clusters (signals read from the fetched windows):\n", len(jobs), len(clusters))
	var baseline float64
	for _, r := range routers {
		f := &federation.Federation{Clusters: clusters, Router: r, Seed: 7}
		res, err := f.Run(jobs)
		if err != nil {
			log.Fatal(err)
		}
		counts := make([]int, len(clusters))
		for _, idx := range res.Assignments {
			counts[idx]++
		}
		s := res.Summary
		if r.Name() == "round-robin" {
			baseline = s.CarbonGrams
		}
		pct := 0.0
		if baseline > 0 {
			pct = 100 * (s.CarbonGrams - baseline) / baseline
		}
		fmt.Printf("  %-18s %8.1f g (%+6.1f%% vs RR) · makespan %5.0f s · avg JCT %4.0f s · jobs/cluster %v\n",
			r.Name(), s.CarbonGrams, pct, s.Makespan, s.AvgJCT, counts)
	}
	fmt.Println("\n(the carbon-aware routers shift load toward the cleanest region at each arrival;")
	fmt.Println(" forecast-aware scores the whole job span and holds its choice under hysteresis)")
}
