// placement: the snapshot-decision path end to end — a short
// simulation is run to a mid-run scheduling event, the cluster is
// exported as a serializable snapshot, and every registered policy is
// asked for its decision twice: locally (restore + Pick) and over HTTP
// (POST /v1/placement against a carbonapi server). The two decisions
// must match policy by policy: the snapshot layer's equivalence
// contract, demonstrated on the wire.
//
//	go run ./examples/placement                          # in-process server
//	go run ./examples/placement -server http://host:8585 # running carbonapi
//	go run ./examples/placement -request req.json -decision dec.json
//
// -request writes the full /v1/placement request body for the first
// policy and -decision the locally computed decision; the CI e2e job
// replays the request with curl and diffs the response against the
// decision file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"reflect"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/carbonapi"
	"pcaps/internal/placement"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

const seed = 42

// snapshotMidRun simulates a small batch and exports the cluster at a
// contended moment: several active jobs, busy and idle executors.
func snapshotMidRun() *sim.Snapshot {
	jobs, err := workload.Generate(workload.GenConfig{N: 10, Arrivals: arrivals.Poisson{MeanSec: 25}, Mix: workload.MixBoth, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	tr := carbon.SynthesizeAll(48, 60, seed)["CAISO"]
	var snap *sim.Snapshot
	events := 0
	cfg := sim.Config{
		NumExecutors: 20,
		Trace:        tr,
		Seed:         seed,
		Observer: func(c *sim.Cluster) {
			events++
			if snap == nil && events >= 30 && c.BusyCount() > 0 && len(c.ActiveJobs()) > 1 {
				snap = c.Snapshot()
			}
		},
	}
	f, err := sched.Default().New(sched.Spec{Kind: "weighted-fair"})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Run(cfg, jobs, f(seed)); err != nil {
		log.Fatal(err)
	}
	if snap == nil {
		log.Fatal("placement: no mid-run snapshot captured")
	}
	return snap
}

func main() {
	server := flag.String("server", "", "carbonapi base URL (default: in-process test server)")
	reqFile := flag.String("request", "", "write the first policy's /v1/placement request body to FILE")
	decFile := flag.String("decision", "", "write the first policy's local decision to FILE")
	flag.Parse()

	snap := snapshotMidRun()
	fmt.Printf("snapshot: t=%.0fs  %d jobs  %d/%d executors busy\n",
		snap.TimeSec, len(snap.Jobs), busyCount(snap), snap.NumExecutors)

	baseURL := *server
	if baseURL == "" {
		srv := httptest.NewServer(carbonapi.NewServer(nil, carbonapi.WithPlacements(&placement.Service{})))
		defer srv.Close()
		baseURL = srv.URL
		fmt.Printf("in-process carbonapi at %s\n", baseURL)
	}
	client := carbonapi.NewClient(baseURL)

	specs := []sched.Spec{
		{Kind: "fifo"},
		{Kind: "decima"},
		{Kind: "greenhadoop"},
		{Kind: "cap", B: sched.Int(10)},
		{Kind: "pcaps", Gamma: sched.Float(0.9)},
	}
	fmt.Printf("\n%-28s %-24s %s\n", "policy", "local Pick", "HTTP /v1/placement")
	mismatches := 0
	for i, spec := range specs {
		// Local path: restore the snapshot and run Pick in-process.
		cluster, err := snap.Restore()
		if err != nil {
			log.Fatal(err)
		}
		f, err := sched.Default().New(spec)
		if err != nil {
			log.Fatal(err)
		}
		local := cluster.Place(f(seed))

		// HTTP path: same snapshot, same policy, over the wire.
		remote, err := client.Place(context.Background(), spec, seed, snap)
		if err != nil {
			log.Fatal(err)
		}

		match := "== MATCH"
		if !reflect.DeepEqual(local, *remote) {
			match = "!= MISMATCH"
			mismatches++
		}
		label, _ := json.Marshal(spec)
		fmt.Printf("%-28s %-24s %s %s\n", label, describe(local), describe(*remote), match)

		if i == 0 {
			writeIfAsked(*reqFile, carbonapi.PlacementRequest{Policy: &spec, Seed: seed, Snapshot: snap})
			writeIfAsked(*decFile, local)
		}
	}
	if mismatches > 0 {
		log.Fatalf("placement: %d policies diverged between local and HTTP", mismatches)
	}
	fmt.Println("\nevery policy's HTTP decision equals its local Pick")
}

func busyCount(s *sim.Snapshot) int {
	n := 0
	for _, e := range s.Executors {
		if e.State != sim.ExecIdle {
			n++
		}
	}
	return n
}

func describe(p sim.Placement) string {
	if p.Defer {
		return "defer"
	}
	return fmt.Sprintf("job %d stage %d +%d exec", p.JobID, p.StageID, len(p.ExecutorIDs))
}

func writeIfAsked(path string, v any) {
	if path == "" {
		return
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
}
