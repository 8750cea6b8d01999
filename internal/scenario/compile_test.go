package scenario

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pcaps/internal/carbon"
	"pcaps/internal/carbonapi"
	"pcaps/internal/result"
	"pcaps/internal/sched"
)

func renderText(t *testing.T, p *Program, env Env) string {
	t.Helper()
	art, err := p.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	return art.Body()
}

// TestRunSerialParallelDeterminism: a compiled scenario is a pure
// function of (spec, fast) — the worker pool must not be observable.
func TestRunSerialParallelDeterminism(t *testing.T) {
	specs := []Spec{
		{
			Name: "cmp", Grids: []string{"DE", "ON"}, Trials: 2,
			Workload: WorkloadSpec{Mix: "tpch", Jobs: 8},
			Baseline: &PolicySpec{Kind: "fifo"},
			Policies: []PolicySpec{{Name: "CAP", Kind: "cap", B: sched.Int(10)}, {Name: "PCAPS", Kind: "pcaps"}},
		},
		{
			Name: "swp", Grids: nil, Workload: WorkloadSpec{Mix: "tpch", Jobs: 8},
			Baseline: &PolicySpec{Kind: "fifo"},
			Sweep:    &SweepSpec{Values: []float64{0.3, 0.8}, Policy: PolicySpec{Kind: "pcaps"}},
		},
		{
			Name: "fed", Workload: WorkloadSpec{Mix: "tpch", Jobs: 8},
			Federation: &FederationSpec{
				Topologies: [][]string{{"DE", "ON"}},
				SinglePins: true,
				Routers:    []RouterSpec{{Kind: "round-robin"}, {Kind: "forecast-aware"}},
			},
		},
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			serial := renderText(t, prog, Env{Fast: true})
			parallel := renderText(t, prog, Env{Fast: true, Pool: NewPool(4)})
			if serial != parallel {
				t.Fatalf("serial and parallel bodies differ:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
		})
	}
}

// TestCSVSource: a cluster can replay a trace from disk; the run
// consumes exactly the stored samples.
func TestCSVSource(t *testing.T) {
	spec, err := carbon.GridByName("ON")
	if err != nil {
		t.Fatal(err)
	}
	tr := carbon.Synthesize(spec, 500, 60, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "on.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := Spec{
		Name:     "csv-replay",
		Clusters: []ClusterSpec{{Name: "replay", Grid: "ON", Source: "csv", CSV: path}},
		Workload: WorkloadSpec{Mix: "tpch", Jobs: 6},
		Baseline: &PolicySpec{Kind: "fifo"},
		Policies: []PolicySpec{{Name: "CAP", Kind: "cap", B: sched.Int(10)}},
	}
	prog, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	in, err := prog.Inputs(Env{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Clusters) != 1 || !reflect.DeepEqual(in.Clusters[0].Trace.Values, tr.Values) {
		t.Fatalf("csv source did not resolve to the stored trace")
	}
	body := renderText(t, prog, Env{Fast: true})
	if !strings.Contains(body, "replay") {
		t.Fatalf("cluster label missing from artifact:\n%s", body)
	}
}

// TestCarbonAPISource: a cluster can fetch its trace from a live
// carbonapi server — the scenario layer rides the same /v1/trace
// endpoint the prototype's daemon polls.
func TestCarbonAPISource(t *testing.T) {
	traces := carbon.SynthesizeAll(400, 60, 42)
	srv := httptest.NewServer(carbonapi.NewServer(traces))
	defer srv.Close()

	s := Spec{
		Name: "live",
		Clusters: []ClusterSpec{
			{Name: "remote-de", Grid: "DE", Source: "carbonapi", URL: srv.URL},
		},
		Workload: WorkloadSpec{Mix: "tpch", Jobs: 6},
		Baseline: &PolicySpec{Kind: "fifo"},
		Policies: []PolicySpec{{Name: "PCAPS", Kind: "pcaps"}},
		Hours:    400,
	}
	prog, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	in, err := prog.Inputs(Env{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Clusters[0].Trace.Values, traces["DE"].Values) {
		t.Fatal("carbonapi source did not fetch the served trace")
	}
	if body := renderText(t, prog, Env{Fast: true}); !strings.Contains(body, "remote-de") {
		t.Fatalf("cluster label missing from artifact:\n%s", body)
	}
}

// TestCarbonPriceColumn: the cost table appears exactly when a price is
// set — unpriced scenarios (and therefore the built-in golden
// artifacts) are unchanged.
func TestCarbonPriceColumn(t *testing.T) {
	base := Spec{
		Name: "p", Grids: []string{"DE"},
		Workload: WorkloadSpec{Mix: "tpch", Jobs: 6},
		Baseline: &PolicySpec{Kind: "fifo"},
		Policies: []PolicySpec{{Name: "CAP", Kind: "cap", B: sched.Int(10)}},
	}
	unpriced, err := Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	if body := renderText(t, unpriced, Env{Fast: true}); strings.Contains(body, "cost") {
		t.Fatalf("unpriced scenario grew a cost table:\n%s", body)
	}

	base.CarbonPriceUSDPerTonne = 100
	priced, err := Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	body := renderText(t, priced, Env{Fast: true})
	if !strings.Contains(body, "carbon cost (USD @ $100/tCO2eq):") {
		t.Fatalf("priced scenario missing cost table:\n%s", body)
	}
	// The baseline row appears in the cost table (absolute dollars make
	// it meaningful there, unlike the relative tables).
	if !strings.Contains(body, "fifo") {
		t.Fatalf("cost table missing baseline row:\n%s", body)
	}
}

// TestFederationPriceColumn: federation tables gain the cost column
// when priced.
func TestFederationPriceColumn(t *testing.T) {
	s := Spec{
		Name:                   "fp",
		Workload:               WorkloadSpec{Mix: "tpch", Jobs: 6},
		CarbonPriceUSDPerTonne: 25,
		Federation: &FederationSpec{
			Topologies: [][]string{{"DE", "ON"}},
			Routers:    []RouterSpec{{Kind: "round-robin"}, {Kind: "lowest-intensity"}},
		},
	}
	prog, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if body := renderText(t, prog, Env{Fast: true}); !strings.Contains(body, "cost (USD)") {
		t.Fatalf("priced federation missing cost column:\n%s", body)
	}
}

// runFast parses, compiles and runs a spec in fast mode.
func runFast(t *testing.T, spec string) *result.Artifact {
	t.Helper()
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(*s)
	if err != nil {
		t.Fatal(err)
	}
	art, err := prog.Run(Env{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestFederationMembersShareGrid: members on one grid draw different
// trial windows, since a member's window seed derives from the member,
// and each is routed on its own window. The spec runs and prints one
// row per router under a header naming the common member size.
func TestFederationMembersShareGrid(t *testing.T) {
	art := runFast(t, `{"name":"twode","seed":3,"clusters":[{"name":"a","grid":"DE"},{"name":"b","grid":"DE"},{"name":"c","grid":"ON"}],
		"workload":{"mix":"tpch","jobs":8},
		"federation":{"routers":[{"kind":"round-robin"},{"kind":"lowest-intensity"}]}}`)
	var rows []string
	for _, b := range art.Blocks {
		if tb, ok := b.(*result.Table); ok {
			for _, row := range tb.Rows {
				rows = append(rows, row[0].S)
			}
		}
	}
	if want := []string{"fed:round-robin", "fed:lowest-intensity"}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	if body, want := art.Body(), "scenario a+b+c — 3 clusters × 100 executors, 8 jobs"; !strings.Contains(body, want) {
		t.Fatalf("header missing %q:\n%s", want, body)
	}
}

// TestFederationHeaderMemberSizes: members of different sizes are each
// named in the header, in member order.
func TestFederationHeaderMemberSizes(t *testing.T) {
	body := runFast(t, `{"name":"fx","seed":3,"clusters":[{"name":"a","grid":"DE","executors":50},{"name":"c","grid":"ON","executors":200}],
		"workload":{"mix":"tpch","jobs":8},"federation":{"routers":[{"kind":"round-robin"}]}}`).Body()
	if want := "scenario a+c — 2 clusters × 50/200 executors, 8 jobs"; !strings.Contains(body, want) {
		t.Fatalf("header missing %q:\n%s", want, body)
	}
}

// TestMetricSelection: Metrics restricts the comparison artifact to the
// named tables.
func TestMetricSelection(t *testing.T) {
	s := Spec{
		Name: "m", Grids: []string{"DE"},
		Workload: WorkloadSpec{Mix: "tpch", Jobs: 6},
		Baseline: &PolicySpec{Kind: "fifo"},
		Policies: []PolicySpec{{Name: "CAP", Kind: "cap", B: sched.Int(10)}},
		Metrics:  []string{MetricRelativeECT},
	}
	prog, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	body := renderText(t, prog, Env{Fast: true})
	if strings.Contains(body, "carbon reduction") {
		t.Fatalf("deselected metric rendered:\n%s", body)
	}
	if !strings.Contains(body, "relative ECT:") {
		t.Fatalf("selected metric missing:\n%s", body)
	}
}

// TestRunReportsSourceFailure: a spec that validates but cannot resolve
// its carbon source at run time (the CSV vanished) surfaces an error,
// not a panic — and does so before any simulation starts.
func TestRunReportsSourceFailure(t *testing.T) {
	s := Spec{
		Name:     "gone",
		Clusters: []ClusterSpec{{Name: "x", Grid: "DE", Source: "csv", CSV: filepath.Join(t.TempDir(), "missing.csv")}},
		Workload: WorkloadSpec{Mix: "tpch", Jobs: 4},
		Baseline: &PolicySpec{Kind: "fifo"},
		Policies: []PolicySpec{{Name: "CAP", Kind: "cap", B: sched.Int(10)}},
	}
	prog, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(Env{Fast: true}); err == nil || !strings.Contains(err.Error(), "missing.csv") {
		t.Fatalf("missing trace file not reported: %v", err)
	}
}

// TestInputsResolvesFederationTopologies: Inputs dedupes the grids of
// every topology and reports the resolved batch shape.
func TestInputsResolvesFederationTopologies(t *testing.T) {
	s := Spec{
		Name:     "fi",
		Workload: WorkloadSpec{Mix: "both"},
		Federation: &FederationSpec{
			Topologies: [][]string{{"DE", "ON"}, {"ON", "ZA"}},
			Routers:    []RouterSpec{{Kind: "round-robin"}},
		},
	}
	prog, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	in, err := prog.Inputs(Env{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range in.Clusters {
		names = append(names, c.Name)
	}
	if !reflect.DeepEqual(names, []string{"DE", "ON", "ZA"}) {
		t.Fatalf("resolved clusters = %v", names)
	}
	if in.JobsN != 16 || in.Mix != "both" || in.Seed != 42 {
		t.Fatalf("resolved batch = %+v", in)
	}
	if len(in.Jobs) != 16 {
		t.Fatalf("template batch has %d jobs", len(in.Jobs))
	}
}
