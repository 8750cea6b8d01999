package carbonapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pcaps/internal/sim"
)

// stubPlacements lets the handler tests script backend behavior without
// restoring real snapshots.
type stubPlacements struct {
	fn func(req *PlacementRequest) ([]sim.Placement, error)
}

func (s stubPlacements) Place(_ context.Context, req *PlacementRequest) ([]sim.Placement, error) {
	return s.fn(req)
}

func postPlacementBody(t *testing.T, srv *httptest.Server, body string) (*http.Response, string) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/placement", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

func TestPlacementEnvelopes(t *testing.T) {
	decide := func(req *PlacementRequest) ([]sim.Placement, error) {
		n := 1
		if req.Policy == nil {
			n = len(req.Policies)
		}
		out := make([]sim.Placement, n)
		for i := range out {
			out[i] = sim.Placement{Scheduler: fmt.Sprintf("stub-%d", i), JobID: i}
		}
		return out, nil
	}
	srv := httptest.NewServer(NewServer(nil, WithPlacements(stubPlacements{decide})))
	defer srv.Close()

	// Single policy: the bare decision, no envelope.
	resp, body := postPlacementBody(t, srv, `{"policy":{"kind":"fifo"}}`)
	var single sim.Placement
	if err := json.Unmarshal([]byte(body), &single); err != nil {
		t.Fatalf("decode single: %v (%s)", err, body)
	}
	if resp.StatusCode != 200 || single.Scheduler != "stub-0" {
		t.Fatalf("single: status %d, decision %+v", resp.StatusCode, single)
	}

	// Batch: the decisions envelope, request order.
	resp, body = postPlacementBody(t, srv, `{"policies":[{"kind":"fifo"},{"kind":"decima"}]}`)
	var batch PlacementResponse
	if err := json.Unmarshal([]byte(body), &batch); err != nil {
		t.Fatalf("decode batch: %v (%s)", err, body)
	}
	if resp.StatusCode != 200 || len(batch.Decisions) != 2 ||
		batch.Decisions[0].Scheduler != "stub-0" || batch.Decisions[1].Scheduler != "stub-1" {
		t.Fatalf("batch: status %d, decisions %+v", resp.StatusCode, batch.Decisions)
	}
}

// TestPlacementRejectsUnknownDAGField checks that strict decoding reaches
// inside the snapshot's job DAGs: a stage that spells "parents" as
// "parent" must be a 400 naming the field, not a DAG with the edge
// dropped and both stages runnable.
func TestPlacementRejectsUnknownDAGField(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil, WithPlacements(stubPlacements{
		func(*PlacementRequest) ([]sim.Placement, error) {
			t.Error("request with an unknown DAG field reached the backend")
			return nil, nil
		},
	})))
	defer srv.Close()
	body := `{"policy":{"kind":"fifo"},"snapshot":{"time_sec":0,"num_executors":1,
		"carbon":{"grid":"DE","interval_sec":60,"values":[300],"forecast_horizon_sec":60,"forecast_low":300,"forecast_high":300},
		"jobs":[{"dag":{"id":0,"name":"j","arrival_sec":0,"stages":[
			{"num_tasks":1,"task_duration_sec":1},
			{"num_tasks":1,"task_duration_sec":1,"parent":[0]}]},
			"stages":[{"dispatched":0,"completed":0,"running":0},{"dispatched":0,"completed":0,"running":0}]}],
		"executors":[{"state":"idle","job":-1,"stage":-1}]}}`
	resp, msg := postPlacementBody(t, srv, body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, `"parent"`) {
		t.Fatalf("status %d (%s), want 400 naming \"parent\"", resp.StatusCode, strings.TrimSpace(msg))
	}
}

func TestPlacementErrorMapping(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		want   string
	}{
		{"invalid request is 400", fmt.Errorf("%w: policy.kind: nope", ErrInvalidPlacement), 400, "policy.kind: nope"},
		{"internal failure is 500", errors.New("disk on fire"), 500, "placing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(NewServer(nil, WithPlacements(stubPlacements{
				func(*PlacementRequest) ([]sim.Placement, error) { return nil, tc.err },
			})))
			defer srv.Close()
			resp, body := postPlacementBody(t, srv, `{"policy":{"kind":"fifo"}}`)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d (%s), want %d", resp.StatusCode, strings.TrimSpace(body), tc.status)
			}
			if !strings.Contains(body, tc.want) {
				t.Errorf("body %q missing %q", strings.TrimSpace(body), tc.want)
			}
		})
	}
}
