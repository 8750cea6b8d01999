package main

import (
	"bytes"
	"encoding/csv"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/scenario"
	"pcaps/internal/workload"
)

// TestTraceRoundTrip: a tracegen trace CSV — with and without the
// provenance header — loads back through carbon.ReadCSV sample-exact.
func TestTraceRoundTrip(t *testing.T) {
	spec, err := carbon.GridByName("CAISO")
	if err != nil {
		t.Fatal(err)
	}
	tr := carbon.Synthesize(spec, 300, 60, 7)
	for _, header := range []bool{false, true} {
		var buf bytes.Buffer
		if err := writeTrace(&buf, tr, traceProvenance("CAISO", 300, 7, header)); err != nil {
			t.Fatal(err)
		}
		if header && !strings.HasPrefix(buf.String(), "# generated=tracegen grid=CAISO hours=300 seed=7\n") {
			t.Fatalf("missing provenance header:\n%s", buf.String()[:80])
		}
		back, err := carbon.ReadCSV(bytes.NewReader(buf.Bytes()), "CAISO", 60)
		if err != nil {
			t.Fatalf("header=%v: %v", header, err)
		}
		if !reflect.DeepEqual(back.Values, tr.Values) {
			t.Fatalf("header=%v: round-trip changed the samples", header)
		}
	}
}

// TestWorkloadRoundTrip: the provenance comment records everything
// needed to regenerate the batch — parse it back, rebuild, and the
// rows must be equal.
func TestWorkloadRoundTrip(t *testing.T) {
	cfg := batchFlags{n: 20, interarrival: 25, mix: workload.MixBoth, seed: 99}
	var buf bytes.Buffer
	if err := writeWorkload(&buf, cfg, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(buf.String(), "\n", 2)
	if !strings.HasPrefix(lines[0], "# generated=tracegen ") {
		t.Fatalf("missing provenance: %q", lines[0])
	}

	// Recover the generator parameters from the header alone.
	params := map[string]string{}
	for _, kv := range strings.Fields(strings.TrimPrefix(lines[0], "# ")) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			t.Fatalf("malformed provenance field %q", kv)
		}
		params[k] = v
	}
	seed, err := strconv.ParseInt(params["seed"], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	n, err := strconv.Atoi(params["n"])
	if err != nil {
		t.Fatal(err)
	}
	inter, err := strconv.ParseFloat(params["interarrival"], 64)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := mixFor(params["mix"])
	if err != nil {
		t.Fatal(err)
	}
	regen := batchFlags{n: n, interarrival: inter, mix: mix, seed: seed}
	if regen != cfg {
		t.Fatalf("recovered config %+v != %+v", regen, cfg)
	}

	// The regenerated batch reproduces the recorded rows exactly.
	rows, err := csv.NewReader(strings.NewReader(lines[1])).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != cfg.n+1 { // header + jobs
		t.Fatalf("%d rows for %d jobs", len(rows), cfg.n)
	}
	jobs, err := workload.Generate(workload.GenConfig{
		N: regen.n, Arrivals: arrivals.Poisson{MeanSec: regen.interarrival}, Mix: regen.mix, Seed: regen.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if got := rows[i+1]; !reflect.DeepEqual(got, workloadRecord(j)) {
			t.Fatalf("row %d: %v != %v", i, got, workloadRecord(j))
		}
	}
}

// TestWorkloadNoHeaderByDefault: the provenance line is opt-in, so
// existing consumers of the bare CSV shape see no change.
func TestWorkloadNoHeaderByDefault(t *testing.T) {
	var buf bytes.Buffer
	if err := writeWorkload(&buf, batchFlags{n: 2, interarrival: 30, mix: workload.MixTPCH, seed: 1}, false); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "job,name,class,arrival_sec") {
		t.Fatalf("unexpected leading bytes: %q", buf.String()[:40])
	}
}

// TestWorkloadRejectsBadFlags: a negative -n or a non-positive or
// non-finite -interarrival fails before any generation, with an error
// naming the flag and nothing written.
func TestWorkloadRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		b    batchFlags
		flag string
	}{
		{batchFlags{n: -2, interarrival: 30}, "-n "},
		{batchFlags{n: 5, interarrival: 0}, "-interarrival "},
		{batchFlags{n: 5, interarrival: -5}, "-interarrival "},
		{batchFlags{n: 5, interarrival: math.NaN()}, "-interarrival "},
		{batchFlags{n: 5, interarrival: math.Inf(1)}, "-interarrival "},
	} {
		var buf bytes.Buffer
		err := writeWorkload(&buf, tc.b, true)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag) {
			t.Errorf("%+v: error %v, want one naming %q", tc.b, err, tc.flag)
		}
		if buf.Len() != 0 {
			t.Errorf("%+v: wrote %d bytes before failing", tc.b, buf.Len())
		}
	}
}

// TestTraceRejectsNonPositiveHours: -hours 0 or below fails with an
// error naming the flag and nothing written.
func TestTraceRejectsNonPositiveHours(t *testing.T) {
	for _, hours := range []int{0, -5} {
		var buf bytes.Buffer
		err := writeGrid(&buf, "DE", hours, 42, true)
		if err == nil || !strings.HasPrefix(err.Error(), "-hours ") {
			t.Errorf("-hours %d: error %v, want one naming -hours", hours, err)
		}
		if buf.Len() != 0 {
			t.Errorf("-hours %d: wrote %d bytes before failing", hours, buf.Len())
		}
	}
}

// TestEmitScenario: the -scenario path writes one trace CSV per
// resolved cluster plus the workload CSV, all loadable.
func TestEmitScenario(t *testing.T) {
	dir := t.TempDir()
	specFile := dir + "/spec.json"
	spec := `{
		"name": "emit",
		"seed": 3,
		"hours": 200,
		"grids": ["DE", "ON"],
		"workload": {"mix": "tpch", "jobs": 5},
		"baseline": {"kind": "fifo"},
		"policies": [{"kind": "cap"}]
	}`
	if err := os.WriteFile(specFile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := emitScenario(specFile, dir, true); err != nil {
		t.Fatal(err)
	}
	for _, grid := range []string{"DE", "ON"} {
		f, err := os.Open(dir + "/" + grid + ".trace.csv")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := carbon.ReadCSV(f, grid, 60)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Values) != 200 {
			t.Fatalf("%s: %d samples, want 200", grid, len(tr.Values))
		}
	}
	data, err := os.ReadFile(dir + "/workload.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# generated=tracegen scenario=emit seed=3 mix=tpch n=5 arrivals=poisson mean_sec=30") {
		t.Fatalf("workload provenance missing:\n%s", data[:120])
	}
}

// TestEmitScenarioArrivalsRoundTrip pins satellite contract: a workload
// CSV emitted for a burst/classes scenario decodes through
// arrivals.ReadCSV into the exact times and class labels of the
// resolved batch, so `workload.arrivals{kind: csv}` replays it.
func TestEmitScenarioArrivalsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specFile := dir + "/spec.json"
	spec := `{
		"name": "replay",
		"seed": 11,
		"hours": 200,
		"grids": ["DE"],
		"workload": {
			"jobs": 12,
			"arrivals": {"kind": "burst", "rps": 0.05, "peak_rps": 0.5, "period_sec": 120, "burst_sec": 20},
			"classes": [
				{"name": "interactive", "mix": "tpch", "weight": 3},
				{"name": "batch", "mix": "alibaba", "weight": 1, "work_scale": 2}
			]
		},
		"baseline": {"kind": "fifo"},
		"policies": [{"kind": "cap"}]
	}`
	if err := os.WriteFile(specFile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := emitScenario(specFile, dir, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/workload.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{
		"# generated=tracegen scenario=replay seed=11 classes=interactive:3,batch:1 n=12",
		"arrivals=burst rps=0.05 peak_rps=0.5 period_sec=120 burst_sec=20",
	} {
		if !strings.Contains(string(data), needle) {
			t.Fatalf("workload provenance missing %q:\n%s", needle, data[:160])
		}
	}
	sched, err := arrivals.ReadCSV(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the resolved batch the emitter serialized.
	prog, err := scenario.Compile(*mustLoad(t, specFile))
	if err != nil {
		t.Fatal(err)
	}
	in, err := prog.Inputs(scenario.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Times) != len(in.Jobs) {
		t.Fatalf("schedule has %d rows, batch %d jobs", len(sched.Times), len(in.Jobs))
	}
	classes := 0
	for i, j := range in.Jobs {
		// Times round through the CSV's two-decimal format.
		want, _ := strconv.ParseFloat(strconv.FormatFloat(j.Arrival, 'f', 2, 64), 64)
		if sched.Times[i] != want {
			t.Fatalf("row %d: time %v, want %v", i, sched.Times[i], want)
		}
		if sched.Classes[i] != j.Class {
			t.Fatalf("row %d: class %q, want %q", i, sched.Classes[i], j.Class)
		}
		if j.Class == "batch" {
			classes++
		}
	}
	if classes == 0 {
		t.Fatal("no job drew the minority class; widen the batch")
	}
}

func mustLoad(t *testing.T, path string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
