// carbonapi-live: the prototype architecture end-to-end over HTTP — a
// carbon-intensity API server replaying a trace, the CAP quota daemon
// polling it and adjusting a Kubernetes-style ResourceQuota, and a
// prototype cluster run using a trace fetched through the API.
//
//	go run ./examples/carbonapi-live
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"pcaps/internal/carbon"
	"pcaps/internal/carbonapi"
	"pcaps/internal/cluster"
	"pcaps/internal/scenario"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

func main() {
	// Serve the six synthetic grids on a loopback listener.
	traces := carbon.SynthesizeAll(3000, 60, 42)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: carbonapi.NewServer(traces)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("carbon API serving on %s\n", base)

	ctx := context.Background()
	client := carbonapi.NewClient(base)
	grids, err := client.Grids(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grids: %v\n", grids)

	// The CAP daemon: polls intensity + forecast and sizes the
	// namespace ResourceQuota, exactly like the paper's Python daemon.
	quota := cluster.NewResourceQuota(cluster.PaperExecutorShape, 100)
	clock := 0.0
	daemon := &cluster.QuotaDaemon{
		Client: client,
		Grid:   "DE",
		K:      100, B: 20,
		Quota: quota,
		Now:   func() float64 { return clock },
	}
	fmt.Println("\nCAP daemon quota decisions across one simulated day:")
	for hour := 0; hour < 24; hour += 4 {
		clock = float64(hour) * 60
		q, err := daemon.Step(ctx)
		if err != nil {
			log.Fatal(err)
		}
		intensity, _ := client.Intensity(ctx, "DE", clock)
		fmt.Printf("  hour %2d: intensity %4.0f g/kWh → quota %3d executors (CPU limit %d m)\n",
			hour, intensity, q, q*cluster.PaperExecutorShape.CPUMillis)
	}

	// Fetch a window of the trace through the API and run the prototype
	// cluster against it.
	window, err := client.FetchTrace(ctx, "DE", 0, 200)
	if err != nil {
		log.Fatal(err)
	}
	jobs, err := workload.Generate(workload.GenConfig{N: 25, Mix: workload.MixBoth, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	cfg := scenario.PaperSimConfig(true, window)
	def, err := sim.Run(cfg, jobs, sched.NewKubeDefault())
	if err != nil {
		log.Fatal(err)
	}
	capRes, err := sim.Run(cfg, jobs, sched.NewCAP(sched.NewKubeDefault(), 20))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprototype run over the fetched trace (%d jobs):\n", len(jobs))
	fmt.Printf("  default: %8.1f g, ECT %5.0f s\n", def.CarbonGrams, def.ECT)
	fmt.Printf("  CAP:     %8.1f g, ECT %5.0f s (%.1f%% carbon reduction)\n",
		capRes.CarbonGrams, capRes.ECT,
		100*(def.CarbonGrams-capRes.CarbonGrams)/def.CarbonGrams)
}
