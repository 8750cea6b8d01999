package experiments

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pcaps/internal/carbon"
	"pcaps/internal/carbonapi"
	"pcaps/internal/result"
)

func serviceServer(t *testing.T) *carbonapi.Client {
	t.Helper()
	spec, err := carbon.GridByName("DE")
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string]*carbon.Trace{"DE": carbon.Synthesize(spec, 200, 60, 42)}
	srv := httptest.NewServer(carbonapi.NewServer(traces, carbonapi.WithExperiments(&Service{})))
	t.Cleanup(srv.Close)
	return carbonapi.NewClient(srv.URL)
}

// TestServiceListMatchesRegistry pins the /v1/experiments index to the
// local registry: same IDs, same titles, paper order.
func TestServiceListMatchesRegistry(t *testing.T) {
	client := serviceServer(t)
	infos, err := client.Experiments(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := List()
	if len(infos) != len(want) {
		t.Fatalf("server lists %d artifacts, registry has %d", len(infos), len(want))
	}
	for i := range want {
		if infos[i].ID != want[i].ID || infos[i].Title != want[i].Title {
			t.Fatalf("infos[%d] = %+v, want %+v", i, infos[i], want[i])
		}
	}
}

// TestServiceRoundTrip runs one artifact through the full wire path —
// server-side fast run, JSON over HTTP, client-side decode — and checks
// the decoded artifact is the one a local fast run produces.
func TestServiceRoundTrip(t *testing.T) {
	client := serviceServer(t)
	got, err := client.Experiment(context.Background(), "table1")
	if err != nil {
		t.Fatal(err)
	}
	local, err := Run("table1", Options{Fast: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, local.Artifact) {
		t.Fatalf("wire artifact diverged from local run:\n got: %#v\nwant: %#v", got, local.Artifact)
	}
	if got.Body() != local.Body() {
		t.Fatalf("decoded body differs:\n%s\n%s", got.Body(), local.Body())
	}
}

func TestServiceUnknownID(t *testing.T) {
	client := serviceServer(t)
	_, err := client.Experiment(context.Background(), "fig99")
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("want a 404 error, got %v", err)
	}
}

// TestServiceConcurrentRuns exercises concurrent on-demand runs of the
// same artifact; results must agree (the run is a pure function of the
// request options).
func TestServiceConcurrentRuns(t *testing.T) {
	client := serviceServer(t)
	const n = 4
	bodies := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			art, err := client.Experiment(context.Background(), "table1")
			if err != nil {
				errs[i] = err
				return
			}
			bodies[i] = art.Body()
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("concurrent runs diverged:\n%s\n%s", bodies[0], bodies[i])
		}
	}
}

// TestServiceRunnerPanic: a runner that panics is a failed run, not a
// dropped connection followed by cached empty successes. Every request
// for it answers the handler's 500, naming the artifact.
func TestServiceRunnerPanic(t *testing.T) {
	saved := artifacts
	artifacts = append(artifacts[:len(artifacts):len(artifacts)], artifact{
		id: "panicky", title: "a runner that panics",
		run: func(Options) (*result.Artifact, error) { panic("runner exploded") },
	})
	t.Cleanup(func() { artifacts = saved })
	client := serviceServer(t)
	for i := 0; i < 2; i++ {
		_, err := client.Experiment(context.Background(), "panicky")
		if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), `running "panicky"`) {
			t.Fatalf("request %d: want a 500 naming the artifact, got %v", i, err)
		}
	}
}

// TestServiceCachesRuns: a run is a pure function of (id, Options), so
// repeat requests must return the same cached artifact instead of
// re-simulating.
func TestServiceCachesRuns(t *testing.T) {
	s := &Service{}
	ctx := context.Background()
	a1, err := s.Run(ctx, "table1")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Run(ctx, "table1")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("repeat request re-ran the artifact instead of hitting the cache")
	}
	// Failures are deterministic too, and cached as such.
	if _, err := s.Run(ctx, "fig99"); err == nil {
		t.Fatal("unknown artifact accepted")
	}
	if _, err := s.Run(ctx, "fig99"); err == nil {
		t.Fatal("cached unknown-artifact error lost")
	}
}

// TestArtifactJSONRoundTrip is the structured-output acceptance gate:
// every artifact's fast run must encode to JSON, decode back to a
// deep-equal artifact, and re-render the identical text body.
func TestArtifactJSONRoundTrip(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(id, Options{Fast: true, Seed: 42})
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			enc, err := json.Marshal(rep.Artifact)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			var back result.Artifact
			if err := json.Unmarshal(enc, &back); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(rep.Artifact, &back) {
				t.Fatalf("round trip diverged:\n in: %#v\nout: %#v", rep.Artifact, &back)
			}
			if got, want := back.Body(), rep.Body(); got != want {
				t.Fatalf("re-rendered body differs:\n--- decoded ---\n%s\n--- original ---\n%s", got, want)
			}
		})
	}
}
