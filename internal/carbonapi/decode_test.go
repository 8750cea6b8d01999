package carbonapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// referenceDecode decodes body the way the handler did before it had its
// own decoder, and the way decodePlacement must agree with:
// encoding/json with unknown fields rejected.
func referenceDecode(body []byte) (*PlacementRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req PlacementRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// captureSnapshot runs jobs on a cluster of k executors under policy and
// returns the snapshot of the first scheduling event at which keep
// holds.
func captureSnapshot(tb testing.TB, k int, tr *carbon.Trace, jobs []*dag.Job, policy sched.Spec, seed int64, keep func(*sim.Cluster, *sim.Snapshot) bool) *sim.Snapshot {
	tb.Helper()
	f, err := sched.Default().New(policy)
	if err != nil {
		tb.Fatal(err)
	}
	var snap *sim.Snapshot
	cfg := sim.Config{NumExecutors: k, Trace: tr, Seed: seed, Observer: func(c *sim.Cluster) {
		if snap == nil {
			if s := c.Snapshot(); keep(c, s) {
				snap = s
			}
		}
	}}
	if _, err := sim.Run(cfg, jobs, f(seed)); err != nil {
		tb.Fatal(err)
	}
	if snap == nil {
		tb.Fatal("no scheduling event matched")
	}
	return snap
}

// prototypeSnapshot is a snapshot the size of the §6.3 prototype's
// cluster, as the placement-http benchmark workload builds it: TPC-H
// jobs under Decima on 100 executors, captured at the first contended
// event (10 active jobs, 90 busy executors) whose snapshot encodes to
// at least 24 KB.
func prototypeSnapshot(tb testing.TB) *sim.Snapshot {
	tb.Helper()
	const seed = 42
	grid, err := carbon.GridByName("DE")
	if err != nil {
		tb.Fatal(err)
	}
	jobs, err := workload.Generate(workload.GenConfig{N: 80, Mix: workload.MixTPCH, Seed: seed,
		Arrivals: arrivals.Poisson{MeanSec: 3}})
	if err != nil {
		tb.Fatal(err)
	}
	return captureSnapshot(tb, 100, carbon.Synthesize(grid, 200, 60, seed), jobs, sched.Spec{Kind: "decima"}, seed,
		func(c *sim.Cluster, s *sim.Snapshot) bool {
			if len(c.ActiveJobs()) < 10 || c.BusyCount() < 90 {
				return false
			}
			raw, err := json.Marshal(s)
			return err == nil && len(raw) >= 24000
		})
}

// exampleSnapshot is the snapshot examples/placement exports: a small
// mixed batch on 20 executors, mid-run.
func exampleSnapshot(tb testing.TB) *sim.Snapshot {
	tb.Helper()
	const seed = 42
	jobs, err := workload.Generate(workload.GenConfig{N: 10, Arrivals: arrivals.Poisson{MeanSec: 25}, Mix: workload.MixBoth, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	events := 0
	return captureSnapshot(tb, 20, carbon.SynthesizeAll(48, 60, seed)["CAISO"], jobs, sched.Spec{Kind: "weighted-fair"}, seed,
		func(c *sim.Cluster, _ *sim.Snapshot) bool {
			events++
			return events >= 30 && c.BusyCount() > 0 && len(c.ActiveJobs()) > 1
		})
}

// benchPolicies are the placement-http workload's policies.
func benchPolicies() []sched.Spec {
	return []sched.Spec{
		{Kind: "fifo"},
		{Kind: "decima"},
		{Kind: "cap", B: sched.Int(10)},
		{Kind: "pcaps", Gamma: sched.Float(0.9)},
	}
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// fuzzSeeds is the seed corpus: valid requests of both sizes, the
// handler's rejection cases, and the two tightenings.
func fuzzSeeds(tb testing.TB) [][]byte {
	proto := prototypeSnapshot(tb)
	var seeds [][]byte
	for _, p := range benchPolicies() {
		seeds = append(seeds, mustMarshal(tb, PlacementRequest{Policy: &p, Seed: 42, Snapshot: proto}))
	}
	small := exampleSnapshot(tb)
	small.Jobs[0].DAG.Class = "interactive"
	indented, err := json.MarshalIndent(PlacementRequest{Policy: &sched.Spec{Kind: "fifo"}, Seed: 42, Snapshot: small}, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	valid := mustMarshal(tb, PlacementRequest{Policy: &sched.Spec{Kind: "fifo"}, Snapshot: small})
	mutated := func(mutate func(*sim.Snapshot)) []byte {
		var s sim.Snapshot
		if err := json.Unmarshal(mustMarshal(tb, small), &s); err != nil {
			tb.Fatal(err)
		}
		mutate(&s)
		return mustMarshal(tb, PlacementRequest{Policy: &sched.Spec{Kind: "fifo"}, Snapshot: &s})
	}
	seeds = append(seeds, indented, valid,
		mustMarshal(tb, PlacementRequest{Policies: benchPolicies(), Snapshot: small}),
		mustMarshal(tb, PlacementRequest{Policy: &sched.Spec{Kind: "cap", B: sched.Int(3), Inner: &sched.Spec{Kind: "decima"}}, Snapshot: small}),
		// The handler's rejections.
		[]byte("{"),
		[]byte(`{"policyy":{"kind":"fifo"}}`),
		mustMarshal(tb, PlacementRequest{Snapshot: small}),
		mustMarshal(tb, map[string]any{"policy": sched.Spec{Kind: "fifo"}, "policies": []sched.Spec{{Kind: "fifo"}}, "snapshot": small}),
		mustMarshal(tb, PlacementRequest{Policy: &sched.Spec{Kind: "srpt"}, Snapshot: small}),
		mustMarshal(tb, PlacementRequest{Policy: &sched.Spec{Kind: "pcaps", Gamma: sched.Float(0)}, Snapshot: small}),
		mustMarshal(tb, PlacementRequest{Policies: []sched.Spec{{Kind: "fifo"}, {Kind: "cap", B: sched.Int(0)}}, Snapshot: small}),
		[]byte(`{"policy":{"kind":"fifo"}}`),
		mutated(func(s *sim.Snapshot) { s.Jobs[0].Stages[0].Dispatched = 1 << 20 }),
		mutated(func(s *sim.Snapshot) { s.NumExecutors = 0 }),
		[]byte(`{"snapshot":{"jobs":[{"dag":{"id":0,"stages":[{"num_tasks":1,"task_duration_sec":1},{"num_tasks":1,"task_duration_sec":1,"parent":[0]}]}}]}}`),
		// The tightenings.
		append(slices.Clone(valid), " trailing garbage"...),
		append(slices.Clone(valid), `{"x":1}`...),
		[]byte(`{"policy":{"kind":"cap","b":3,"inner":{"kind":"decima"}},"policy":{"kind":"cap"}}`),
		[]byte(`{"policy":{"kind":"fifo"},"POLICY":{"kind":"decima"}}`),
		// What encoding/json tolerates: nulls, folded and escaped keys,
		// escapes, invalid UTF-8.
		[]byte(`{"policy":null,"policies":[null,{"KIND":"fifo","b":null,"gamma":null,"inner":null}],"seed":null,`+
			`"snapshot":{"carbon":null,"jobs":[null,{"dag":null,"stages":[null]}],"executors":[]}}`),
		[]byte("{\"policy\":{\"kind\":\"fi\\u0066o\\ud83d\\ude00\\ud800\xff\"},\"Seed\":-0,\"snapshot\":{\"time_sec\":1e-3,\"carbon\":{\"values\":[1E2,-0.5,0]}}}"),
	)
	return seeds
}

// FuzzDecodePlacement holds decodePlacement to encoding/json's decode
// of the same body: what it accepts, the reference accepts into an
// equal request; what the reference rejects, it rejects; and where only
// the reference accepts, the body repeats a field or has trailing data.
func FuzzDecodePlacement(f *testing.F) {
	for _, body := range fuzzSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodePlacement(body)
		want, refErr := referenceDecode(body)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("accepted a body encoding/json rejects (%v)", refErr)
		case err == nil:
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %+v, encoding/json decoded %+v", got, want)
			}
		case refErr == nil:
			if !strings.HasPrefix(err.Msg, msgRepeated) && !strings.HasPrefix(err.Msg, msgTrailing) {
				t.Fatalf("rejected a body encoding/json accepts: %v", err)
			}
		}
	})
}

// TestDecodePlacementRejects pins the path and message of each kind of
// rejection.
func TestDecodePlacementRejects(t *testing.T) {
	const stage = `{"num_tasks":1,"task_duration_sec":1}`
	cases := []struct {
		body, param, msg string
	}{
		{"", "body", "unexpected EOF"},
		{`{"policy":{"kind":"fifo"}`, "body", "unexpected EOF"},
		{`{"policy":{"kind":"fi`, "body", "unexpected EOF"},
		{`[]`, "body", "want an object, got array"},
		{`{"policyy":{}}`, "body", `unknown field "policyy"`},
		{`{"snapshot":{"jobs":[{"dag":{"stages":[` + stage + `,{"parent":[0]}]}}]}}`,
			"snapshot.jobs[0].dag.stages[1]", `unknown field "parent"`},
		{`{"snapshot":{"jobs":[null,{"dag":{"stages":[` + stage + `,{"num_tasks":1,"task_duration_sec":1,"parents":[2]}]}}]}}`,
			"snapshot.jobs[1].dag", "edge references unknown stage"},
		{`{"policy":{"kind":"fifo"},"POLICY":{"kind":"decima"}}`, "policy", `repeated field "POLICY"`},
		{`{"policies":[{"kind":"cap","b":3,"B":4}]}`, "policies[0].b", `repeated field "B"`},
		{`{"policy":{"kind":"fifo"}} x`, "body", msgTrailing + " at offset 27"},
		{`{"policy":{"kind":"fifo"}}{"x":1}`, "body", msgTrailing},
		{`{"seed":1.5}`, "seed", "want an integer, got 1.5"},
		{`{"seed":1e2}`, "seed", "want an integer, got 1e2"},
		{`{"seed":9223372036854775808}`, "seed", "overflows 64 bits"},
		{`{"snapshot":{"num_executors":"4"}}`, "snapshot.num_executors", "want an integer, got string"},
		{`{"snapshot":{"carbon":{"values":[1,2,true]}}}`, "snapshot.carbon.values[2]", "want a number, got boolean"},
		{`{"snapshot":{"carbon":{"values":[1e400]}}}`, "snapshot.carbon.values[0]", "out of range"},
		{`{"snapshot":{"executors":[{"state":"idle"`, "body", "unexpected EOF"},
		{`{"snapshot":{"executors":[{"state":"id\le"}]}}`, "snapshot.executors[0].state", `invalid character "l" in string escape code`},
		{`{"seed":01}`, "body", `invalid character "1" after object key:value pair at offset 9`},
		{`{"policy":{"kind":"fifo"},}`, "body", "looking for beginning of object key string"},
	}
	for _, tc := range cases {
		_, err := decodePlacement([]byte(tc.body))
		if err == nil {
			t.Errorf("%s: accepted", tc.body)
			continue
		}
		if err.Param != tc.param || !strings.Contains(err.Msg, tc.msg) {
			t.Errorf("%s: rejected as %q, want %s: …%s…", tc.body, err, tc.param, tc.msg)
		}
	}
}

// TestDecodePlacementNesting pins encoding/json's nesting limit: a
// policy nested to exactly maxNesting levels decodes, one level more
// does not, for both decoders.
func TestDecodePlacementNesting(t *testing.T) {
	// The request object is level 1 and the policy level 2, so inner
	// specs nest to level 2+n.
	nested := func(n int) []byte {
		var b bytes.Buffer
		b.WriteString(`{"policy":`)
		for range n {
			b.WriteString(`{"kind":"cap","inner":`)
		}
		b.WriteString(`{"kind":"fifo"}`)
		b.WriteString(strings.Repeat("}", n+1))
		return b.Bytes()
	}
	deepest := nested(maxNesting - 2)
	got, err := decodePlacement(deepest)
	if err != nil {
		t.Fatalf("%d levels: %v", maxNesting, err)
	}
	if want, refErr := referenceDecode(deepest); refErr != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%d levels: decoded differently from encoding/json (reference error %v)", maxNesting, refErr)
	}
	tooDeep := nested(maxNesting - 1)
	if _, err := decodePlacement(tooDeep); err == nil || err.Param != "body" || !strings.Contains(err.Msg, "nesting deeper than") {
		t.Fatalf("%d levels: err = %v, want a nesting rejection naming body", maxNesting+1, err)
	}
	if _, refErr := referenceDecode(tooDeep); refErr == nil {
		t.Fatalf("encoding/json accepted %d levels", maxNesting+1)
	}
}

// TestDecodeFieldNames checks the decoder's field tables against the
// json tags of the types it fills and against dag.Job's encoding.
func TestDecodeFieldNames(t *testing.T) {
	for _, c := range []struct {
		typ   reflect.Type
		names []string
	}{
		{reflect.TypeFor[PlacementRequest](), requestFields},
		{reflect.TypeFor[sched.Spec](), specFields},
		{reflect.TypeFor[sim.Snapshot](), snapshotFields},
		{reflect.TypeFor[sim.CarbonSnapshot](), carbonFields},
		{reflect.TypeFor[sim.JobSnapshot](), jobFields},
		{reflect.TypeFor[sim.StageSnapshot](), progressFields},
		{reflect.TypeFor[sim.ExecutorSnapshot](), executorFields},
	} {
		var tags []string
		for i := range c.typ.NumField() {
			name, _, _ := strings.Cut(c.typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, name)
		}
		if !slices.Equal(tags, c.names) {
			t.Errorf("%v: decoder fields %v, json tags %v", c.typ, c.names, tags)
		}
	}
	b := dag.NewBuilder(3, "j")
	b.Chain(b.Stage("a", 1, 1), b.Stage("b", 2, 1))
	job := b.MustBuild()
	job.Class = "c"
	var enc struct {
		Job    map[string]json.RawMessage
		Stages []map[string]json.RawMessage
	}
	if err := json.Unmarshal(mustMarshal(t, job), &enc.Job); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(enc.Job["stages"], &enc.Stages); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]json.RawMessage) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	if got, want := keys(enc.Job), slices.Sorted(slices.Values(dagFields)); !slices.Equal(got, want) {
		t.Errorf("dag.Job encodes fields %v, decoder reads %v", got, want)
	}
	if got, want := keys(enc.Stages[1]), slices.Sorted(slices.Values(dagStageFields)); !slices.Equal(got, want) {
		t.Errorf("dag stages encode fields %v, decoder reads %v", got, want)
	}
}

// TestDecodeBoundedWork checks that a number in the body sizes nothing:
// a snapshot declaring 2^62 executors with one executor entry decodes
// with allocations in proportion to its bytes, and the request is a 400
// naming the executors.
func TestDecodeBoundedWork(t *testing.T) {
	body := []byte(`{"policy":{"kind":"fifo"},"snapshot":{"time_sec":0,"num_executors":4611686018427387904,` +
		`"carbon":{"grid":"DE","interval_sec":60,"values":[300],"forecast_horizon_sec":60,"forecast_low":300,"forecast_high":300},` +
		`"jobs":[],"executors":[{"state":"idle","job":-1,"stage":-1}]}}`)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := decodePlacement(body); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4*uint64(len(body)) {
		t.Errorf("decoding a %d-byte body allocated %d bytes", len(body), per)
	}

	srv := httptest.NewServer(NewServer(nil, WithPlacements(stubPlacements{
		func(req *PlacementRequest) ([]sim.Placement, error) {
			if _, err := req.Snapshot.Restore(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrInvalidPlacement, err)
			}
			return nil, fmt.Errorf("restored %d executors from one entry", req.Snapshot.NumExecutors)
		},
	})))
	defer srv.Close()
	resp, msg := postPlacementBody(t, srv, string(body))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "snapshot.executors") {
		t.Fatalf("status %d (%s), want 400 naming snapshot.executors", resp.StatusCode, strings.TrimSpace(msg))
	}
}

// BenchmarkDecodePlacement times the decode layer of POST /v1/placement
// on a request the size of the placement-http workload's (100
// executors, about 24 KB): encoding/json as the handler used it, and the
// one-pass decoder.
func BenchmarkDecodePlacement(b *testing.B) {
	body := mustMarshal(b, PlacementRequest{Policy: &sched.Spec{Kind: "decima"}, Seed: 42, Snapshot: prototypeSnapshot(b)})
	for _, c := range []struct {
		name   string
		decode func([]byte) error
	}{
		{"reference", func(body []byte) error { _, err := referenceDecode(body); return err }},
		{"onepass", func(body []byte) error {
			if _, err := decodePlacement(body); err != nil {
				return err
			}
			return nil
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if err := c.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
