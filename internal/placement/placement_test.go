package placement_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/carbonapi"
	"pcaps/internal/placement"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// equivalenceSpecs covers every registered policy kind, plus the
// parameterized variants the paper sweeps.
func equivalenceSpecs() []sched.Spec {
	specs := []sched.Spec{
		{Kind: "fifo"},
		{Kind: "kube-default"},
		{Kind: "weighted-fair"},
		{Kind: "decima"},
		{Kind: "uniformpb"},
		{Kind: "greenhadoop"},
		{Kind: "cap"},
		{Kind: "cap", B: sched.Int(10), Inner: &sched.Spec{Kind: "decima"}},
		{Kind: "pcaps"},
		{Kind: "pcaps", Gamma: sched.Float(0.9), Inner: &sched.Spec{Kind: "uniformpb"}},
	}
	return specs
}

func specLabel(s sched.Spec) string {
	raw, _ := json.Marshal(s)
	return string(raw)
}

// capture holds one mid-run observation: the serialized snapshot and
// the decision every policy made live on the very same cluster state.
type capture struct {
	event int
	raw   []byte // snapshot JSON, as it would travel over the wire
	live  []sim.Placement
}

// captureRun simulates a batch and, at a few interesting events,
// records the snapshot alongside each policy's live decision.
func captureRun(t *testing.T, seed int64, specs []sched.Spec) []capture {
	t.Helper()
	reg := sched.Default()
	factories := make([]sched.Factory, len(specs))
	for i, s := range specs {
		f, err := reg.New(s)
		if err != nil {
			t.Fatalf("New(%s): %v", specLabel(s), err)
		}
		factories[i] = f
	}
	jobs, err := workload.Generate(workload.GenConfig{N: 10, Arrivals: arrivals.Poisson{MeanSec: 25}, Mix: workload.MixBoth, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tr := carbon.SynthesizeAll(48, 60, seed)["CAISO"]
	var caps []capture
	events := 0
	cfg := sim.Config{
		NumExecutors: 20,
		Trace:        tr,
		Seed:         seed,
		Observer: func(c *sim.Cluster) {
			events++
			// Sample a spread of cluster states: early (mostly idle),
			// mid-run (contended), late (draining).
			if events != 5 && events != 30 && events != 90 {
				return
			}
			snap := c.Snapshot()
			raw, err := json.Marshal(snap)
			if err != nil {
				t.Errorf("marshal snapshot at event %d: %v", events, err)
				return
			}
			cp := capture{event: events, raw: raw}
			for _, f := range factories {
				// A fresh instance per capture: scheduler scratch state
				// must not leak between decisions, mirroring what the
				// placement service does server-side.
				cp.live = append(cp.live, c.Place(f(seed)))
			}
			caps = append(caps, cp)
		},
	}
	// Drive the run with a mid-pack policy so captures see held and
	// busy executors under a realistic dispatch pattern.
	driver, err := reg.New(sched.Spec{Kind: "weighted-fair"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(cfg, jobs, driver(seed)); err != nil {
		t.Fatal(err)
	}
	if len(caps) == 0 {
		t.Fatal("no captures; fixture too small")
	}
	return caps
}

// TestDecisionEquivalence is the contract of the whole snapshot layer:
// for every registered policy, Pick on the live cluster equals Pick on
// a cluster restored from the JSON-round-tripped snapshot.
func TestDecisionEquivalence(t *testing.T) {
	specs := equivalenceSpecs()
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, cp := range captureRun(t, seed, specs) {
				var snap sim.Snapshot
				if err := json.Unmarshal(cp.raw, &snap); err != nil {
					t.Fatalf("event %d: decode snapshot: %v", cp.event, err)
				}
				cluster, err := snap.Restore()
				if err != nil {
					t.Fatalf("event %d: restore: %v", cp.event, err)
				}
				for i, spec := range specs {
					f, err := sched.Default().New(spec)
					if err != nil {
						t.Fatal(err)
					}
					got := cluster.Place(f(seed))
					if !reflect.DeepEqual(got, cp.live[i]) {
						t.Errorf("event %d, policy %s:\nlive     %+v\nrestored %+v",
							cp.event, specLabel(spec), cp.live[i], got)
					}
				}
			}
		})
	}
}

// TestServiceMatchesHTTP proves the full wire path: POSTing the
// snapshot through a real server yields the same decision as calling
// the backend locally.
func TestServiceMatchesHTTP(t *testing.T) {
	specs := equivalenceSpecs()
	const seed = int64(42)
	caps := captureRun(t, seed, specs)

	srv := httptest.NewServer(carbonapi.NewServer(nil, carbonapi.WithPlacements(&placement.Service{})))
	defer srv.Close()
	client := carbonapi.NewClient(srv.URL)

	cp := caps[len(caps)-1]
	var snap sim.Snapshot
	if err := json.Unmarshal(cp.raw, &snap); err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		got, err := client.Place(context.Background(), spec, seed, &snap)
		if err != nil {
			t.Fatalf("Place(%s): %v", specLabel(spec), err)
		}
		if !reflect.DeepEqual(*got, cp.live[i]) {
			t.Errorf("policy %s:\nlive %+v\nhttp %+v", specLabel(spec), cp.live[i], *got)
		}
	}
	// The batch endpoint returns the same decisions in request order.
	batch, err := client.PlaceBatch(context.Background(), specs, seed, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, cp.live) {
		t.Errorf("batch decisions diverge:\nlive  %+v\nbatch %+v", cp.live, batch)
	}
}

// TestUniformPBFollowsSeed pins that uniformpb samples with the request
// seed, as decima does: at every seed the server answers with the
// decision of a UniformPB seeded with it, and the seeds do not all pick
// one stage.
func TestUniformPBFollowsSeed(t *testing.T) {
	caps := captureRun(t, 42, []sched.Spec{{Kind: "fifo"}})
	var snap sim.Snapshot
	if err := json.Unmarshal(caps[len(caps)-1].raw, &snap); err != nil {
		t.Fatal(err)
	}
	cluster, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cluster.Runnable()); n < 3 {
		t.Fatalf("snapshot has %d runnable stages; fixture too small", n)
	}
	srv := httptest.NewServer(carbonapi.NewServer(nil, carbonapi.WithPlacements(&placement.Service{})))
	defer srv.Close()
	client := carbonapi.NewClient(srv.URL)
	picked := map[[2]int]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		got, err := client.Place(context.Background(), sched.Spec{Kind: "uniformpb"}, seed, &snap)
		if err != nil {
			t.Fatal(err)
		}
		if want := cluster.Place(&sched.UniformPB{Seed: seed}); !reflect.DeepEqual(*got, want) {
			t.Errorf("seed %d: served %+v, a UniformPB seeded with it picks %+v", seed, *got, want)
		}
		picked[[2]int{got.JobID, got.StageID}] = true
	}
	if len(picked) < 2 {
		t.Errorf("uniformpb picked %v at all eight seeds", picked)
	}
}

// testSnapshot builds one small valid snapshot for handler tests.
func testSnapshot(t *testing.T) *sim.Snapshot {
	t.Helper()
	caps := captureRun(t, 1, []sched.Spec{{Kind: "fifo"}})
	var snap sim.Snapshot
	if err := json.Unmarshal(caps[0].raw, &snap); err != nil {
		t.Fatal(err)
	}
	return &snap
}

func postPlacement(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/placement", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

func TestPlacementHandlerRejects(t *testing.T) {
	snap := testSnapshot(t)
	snapJSON, _ := json.Marshal(snap)
	srv := httptest.NewServer(carbonapi.NewServer(nil, carbonapi.WithPlacements(&placement.Service{})))
	defer srv.Close()

	mutated := func(mutate func(*sim.Snapshot)) []byte {
		var s sim.Snapshot
		if err := json.Unmarshal(snapJSON, &s); err != nil {
			t.Fatal(err)
		}
		mutate(&s)
		body, _ := json.Marshal(carbonapi.PlacementRequest{Policy: &sched.Spec{Kind: "fifo"}, Snapshot: &s})
		return body
	}
	req := func(v any) []byte {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	cases := []struct {
		name   string
		body   []byte
		status int
		want   string // substring the error must carry
	}{
		{"not json", []byte("{"), http.StatusBadRequest, "body: unexpected EOF"},
		{"unknown top-level field", []byte(`{"policyy":{"kind":"fifo"}}`), http.StatusBadRequest, "policyy"},
		{"neither policy nor policies", req(carbonapi.PlacementRequest{Snapshot: snap}),
			http.StatusBadRequest, "exactly one of policy and policies"},
		{"both policy and policies", req(map[string]any{
			"policy": sched.Spec{Kind: "fifo"}, "policies": []sched.Spec{{Kind: "fifo"}}, "snapshot": snap,
		}), http.StatusBadRequest, "exactly one of policy and policies"},
		{"unknown policy kind", req(carbonapi.PlacementRequest{Policy: &sched.Spec{Kind: "srpt"}, Snapshot: snap}),
			http.StatusBadRequest, `policy.kind: unknown policy kind "srpt"`},
		{"zero gamma", req(carbonapi.PlacementRequest{Policy: &sched.Spec{Kind: "pcaps", Gamma: sched.Float(0)}, Snapshot: snap}),
			http.StatusBadRequest, "policy.gamma: gamma 0 outside (0, 1]"},
		{"zero b in batch", req(carbonapi.PlacementRequest{Policies: []sched.Spec{{Kind: "fifo"}, {Kind: "cap", B: sched.Int(0)}}, Snapshot: snap}),
			http.StatusBadRequest, "policies[1].b: CAP quota 0 below 1"},
		{"missing snapshot", req(carbonapi.PlacementRequest{Policy: &sched.Spec{Kind: "fifo"}}),
			http.StatusBadRequest, "snapshot: missing cluster snapshot"},
		{"malformed snapshot counters", mutated(func(s *sim.Snapshot) { s.Jobs[0].Stages[0].Dispatched = 1 << 20 }),
			http.StatusBadRequest, "snapshot.jobs[0].stages[0].dispatched"},
		{"zero executors", mutated(func(s *sim.Snapshot) { s.NumExecutors = 0 }),
			http.StatusBadRequest, "snapshot.num_executors"},
		{"trailing garbage", append(req(carbonapi.PlacementRequest{Policy: &sched.Spec{Kind: "fifo"}, Snapshot: snap}), " trailing garbage"...),
			http.StatusBadRequest, "body: trailing data"},
		{"trailing second object", append(req(carbonapi.PlacementRequest{Policy: &sched.Spec{Kind: "fifo"}, Snapshot: snap}), `{"x":1}`...),
			http.StatusBadRequest, "body: trailing data"},
		{"repeated policy", append([]byte(`{"policy":{"kind":"cap","b":3,"inner":{"kind":"decima"}},"policy":{"kind":"cap"},"snapshot":`), append(snapJSON, '}')...),
			http.StatusBadRequest, `policy: repeated field "policy"`},
		{"case-folded twin policy", append([]byte(`{"policy":{"kind":"fifo"},"POLICY":{"kind":"decima"},"snapshot":`), append(snapJSON, '}')...),
			http.StatusBadRequest, `policy: repeated field "POLICY"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postPlacement(t, srv.URL, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d (%s), want %d", status, strings.TrimSpace(body), tc.status)
			}
			if !strings.Contains(body, tc.want) {
				t.Errorf("body %q missing %q", strings.TrimSpace(body), tc.want)
			}
		})
	}
}

func TestPlacementDisabledIs404(t *testing.T) {
	srv := httptest.NewServer(carbonapi.NewServer(nil))
	defer srv.Close()
	status, body := postPlacement(t, srv.URL, []byte(`{}`))
	if status != http.StatusNotFound {
		t.Fatalf("status = %d (%s), want 404", status, strings.TrimSpace(body))
	}
	if !strings.Contains(body, "not enabled") {
		t.Errorf("body %q should say the service is not enabled", strings.TrimSpace(body))
	}
}

func TestPlacementOversizedIs413(t *testing.T) {
	srv := httptest.NewServer(carbonapi.NewServer(nil, carbonapi.WithPlacements(&placement.Service{})))
	defer srv.Close()
	big := append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), 9<<20)...)
	big = append(big, []byte(`"}`)...)
	status, _ := postPlacement(t, srv.URL, big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", status)
	}
}

// TestPlacementConcurrent hammers one server with overlapping requests
// across policies; run under -race this pins the no-shared-state claim
// of the Placements contract.
func TestPlacementConcurrent(t *testing.T) {
	snap := testSnapshot(t)
	specs := equivalenceSpecs()
	srv := httptest.NewServer(carbonapi.NewServer(nil, carbonapi.WithPlacements(&placement.Service{})))
	defer srv.Close()
	client := carbonapi.NewClient(srv.URL)

	// Sequential reference decisions, one per spec.
	want := make([]sim.Placement, len(specs))
	for i, s := range specs {
		p, err := client.Place(context.Background(), s, 3, snap)
		if err != nil {
			t.Fatalf("reference Place(%s): %v", specLabel(s), err)
		}
		want[i] = *p
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4*len(specs))
	for round := 0; round < 4; round++ {
		for i, s := range specs {
			wg.Add(1)
			go func(i int, s sched.Spec) {
				defer wg.Done()
				p, err := client.Place(context.Background(), s, 3, snap)
				if err != nil {
					errs <- fmt.Errorf("Place(%s): %v", specLabel(s), err)
					return
				}
				if !reflect.DeepEqual(*p, want[i]) {
					errs <- fmt.Errorf("policy %s: concurrent decision %+v != sequential %+v", specLabel(s), *p, want[i])
				}
			}(i, s)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
