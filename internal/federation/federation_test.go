package federation

import (
	"math"
	"net/http/httptest"
	"reflect"
	"testing"

	"pcaps/internal/carbon"
	"pcaps/internal/carbonapi"
	"pcaps/internal/dag"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
)

func flatTrace(t *testing.T, grid string, value float64, n int) *carbon.Trace {
	t.Helper()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = value
	}
	tr, err := carbon.New(grid, 60, vals)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func stepTrace(t *testing.T, grid string, vals []float64) *carbon.Trace {
	t.Helper()
	tr, err := carbon.New(grid, 60, vals)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func fifoSpec(grid string, tr *carbon.Trace) ClusterSpec {
	return ClusterSpec{
		Grid:         grid,
		Trace:        tr,
		Config:       sim.Config{NumExecutors: 8},
		NewScheduler: func(int64) sim.Scheduler { return &sched.FIFO{} },
	}
}

func testJobs(n int, gap float64) []*dag.Job {
	jobs := make([]*dag.Job, 0, n)
	for i := 0; i < n; i++ {
		b := dag.NewBuilder(i, "fed")
		b.Stage("s", 4, 30)
		j := b.MustBuild()
		j.Arrival = float64(i) * gap
		jobs = append(jobs, j)
	}
	return jobs
}

func TestRoundRobinDistribution(t *testing.T) {
	f := &Federation{
		Clusters: []ClusterSpec{
			fifoSpec("A", flatTrace(t, "A", 100, 48)),
			fifoSpec("B", flatTrace(t, "B", 200, 48)),
			fifoSpec("C", flatTrace(t, "C", 300, 48)),
		},
		Router: NewRoundRobin(),
		Seed:   1,
	}
	res, err := f.Run(testJobs(9, 10))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	if !reflect.DeepEqual(res.Assignments, want) {
		t.Fatalf("assignments = %v, want %v", res.Assignments, want)
	}
	for i, pc := range res.PerCluster {
		if pc.Jobs != 3 || pc.Sim == nil {
			t.Fatalf("cluster %d share = %d jobs (sim nil=%v), want 3", i, pc.Jobs, pc.Sim == nil)
		}
	}
	if res.Summary.Jobs != 9 {
		t.Fatalf("summary jobs = %d", res.Summary.Jobs)
	}
}

func TestRunDeterminism(t *testing.T) {
	mk := func() *Federation {
		return &Federation{
			Clusters: []ClusterSpec{
				fifoSpec("A", stepTrace(t, "A", []float64{100, 400, 100, 400, 100, 400, 100, 400})),
				fifoSpec("B", stepTrace(t, "B", []float64{300, 120, 300, 120, 300, 120, 300, 120})),
			},
			Router: NewForecastAware(),
			Seed:   7,
		}
	}
	jobs := testJobs(12, 45)
	a, err := mk().Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Same instance re-run (Reset must clear hysteresis state) and a
	// fresh instance must both reproduce the first run exactly.
	f := mk()
	b1, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []*Result{b1, b2} {
		if !reflect.DeepEqual(a.Assignments, other.Assignments) {
			t.Fatalf("assignments diverged: %v vs %v", a.Assignments, other.Assignments)
		}
		if a.Summary.CarbonGrams != other.Summary.CarbonGrams || a.Summary.Makespan != other.Summary.Makespan {
			t.Fatalf("summary diverged: %+v vs %+v", a.Summary, other.Summary)
		}
	}
}

func TestLowestIntensityBeatsRoundRobin(t *testing.T) {
	clusters := []ClusterSpec{
		fifoSpec("dirty", flatTrace(t, "dirty", 700, 96)),
		fifoSpec("clean", flatTrace(t, "clean", 100, 96)),
	}
	jobs := testJobs(10, 30)
	rr, err := (&Federation{Clusters: clusters, Router: NewRoundRobin(), Seed: 3}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	li, err := (&Federation{Clusters: clusters, Router: NewLowestIntensity(), Seed: 3}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if li.Summary.CarbonGrams >= rr.Summary.CarbonGrams {
		t.Fatalf("lowest-intensity %v g not below round-robin %v g",
			li.Summary.CarbonGrams, rr.Summary.CarbonGrams)
	}
	for i, idx := range li.Assignments {
		if idx != 1 {
			t.Fatalf("job %d routed to dirty cluster", i)
		}
	}
	// The dark cluster emitted nothing and has no simulation.
	if li.PerCluster[0].Sim != nil || li.PerCluster[0].Jobs != 0 {
		t.Fatalf("dirty cluster should be dark: %+v", li.PerCluster[0])
	}
}

func TestForecastAwareHysteresis(t *testing.T) {
	r := NewForecastAware() // default 5% margin
	states := func(a, b float64) []ClusterState {
		return []ClusterState{
			{Index: 0, Name: "A", Low: a, High: a},
			{Index: 1, Name: "B", Low: b, High: b},
		}
	}
	var job JobInfo
	if got := r.Route(job, states(100, 95)); got != 1 {
		t.Fatalf("initial pick = %d, want 1 (cleaner)", got)
	}
	// Challenger A (100) is within 5% of the incumbent B (102): stick.
	if got := r.Route(job, states(100, 102)); got != 1 {
		t.Fatalf("within-margin pick = %d, want incumbent 1", got)
	}
	// Incumbent degrades past the margin: switch.
	if got := r.Route(job, states(100, 120)); got != 0 {
		t.Fatalf("beyond-margin pick = %d, want 0", got)
	}
	// The new incumbent now enjoys the same stickiness.
	if got := r.Route(job, states(103, 100)); got != 0 {
		t.Fatalf("post-switch within-margin pick = %d, want incumbent 0", got)
	}
	// Reset clears the anchor: a fresh run picks the current best.
	r.Reset()
	if got := r.Route(job, states(100, 102)); got != 0 {
		t.Fatalf("post-reset pick = %d, want 0", got)
	}
}

// badRouter returns an out-of-range index.
type badRouter struct{}

func (badRouter) Name() string                      { return "bad" }
func (badRouter) Reset()                            {}
func (badRouter) Route(JobInfo, []ClusterState) int { return 99 }

func TestRunValidation(t *testing.T) {
	tr := flatTrace(t, "A", 100, 8)
	jobs := testJobs(2, 10)
	if _, err := (&Federation{Router: NewRoundRobin()}).Run(jobs); err == nil {
		t.Fatal("no clusters accepted")
	}
	if _, err := (&Federation{Clusters: []ClusterSpec{fifoSpec("A", tr)}}).Run(jobs); err == nil {
		t.Fatal("no router accepted")
	}
	if _, err := (&Federation{Clusters: []ClusterSpec{fifoSpec("A", tr)}, Router: NewRoundRobin()}).Run(nil); err == nil {
		t.Fatal("no jobs accepted")
	}
	if _, err := (&Federation{Clusters: []ClusterSpec{fifoSpec("A", tr)}, Router: badRouter{}}).Run(jobs); err == nil {
		t.Fatal("out-of-range route accepted")
	}
	spec := fifoSpec("A", tr)
	spec.NewScheduler = nil
	if _, err := (&Federation{Clusters: []ClusterSpec{spec}, Router: NewRoundRobin()}).Run(jobs); err == nil {
		t.Fatal("missing scheduler factory accepted")
	}
	// Clusters sharing a grid must share one trace: signals are
	// grid-keyed, so divergent windows would score one cluster with the
	// other's signal.
	conflicting := []ClusterSpec{
		fifoSpec("A", tr),
		fifoSpec("A", flatTrace(t, "A", 500, 8)),
	}
	if _, err := (&Federation{Clusters: conflicting, Router: NewRoundRobin()}).Run(jobs); err == nil {
		t.Fatal("same-grid clusters with different traces accepted")
	}
	// The same trace shared across same-grid clusters stays legal (the
	// single-grid experiment baselines rely on it).
	sharing := []ClusterSpec{fifoSpec("A", tr), fifoSpec("A", tr)}
	if _, err := (&Federation{Clusters: sharing, Router: NewRoundRobin()}).Run(jobs); err != nil {
		t.Fatalf("same-grid same-trace clusters rejected: %v", err)
	}
}

// TestClientSignalsMatchTraceSignals drives the router through the
// carbonapi HTTP server and checks the daemon path reproduces the local
// trace-backed run exactly (the server's forecast reads the same
// trace's window extremes).
func TestClientSignalsMatchTraceSignals(t *testing.T) {
	trA := stepTrace(t, "A", []float64{100, 400, 150, 380, 90, 420, 110, 400})
	trB := stepTrace(t, "B", []float64{300, 120, 280, 110, 320, 100, 300, 130})
	clusters := []ClusterSpec{fifoSpec("A", trA), fifoSpec("B", trB)}
	jobs := testJobs(10, 50)

	local, err := (&Federation{Clusters: clusters, Router: NewForecastAware(), Seed: 5}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(carbonapi.NewServer(map[string]*carbon.Trace{"A": trA, "B": trB}))
	defer srv.Close()
	remote, err := (&Federation{
		Clusters: clusters,
		Router:   NewForecastAware(),
		Signals:  &ClientSignals{Client: carbonapi.NewClient(srv.URL)},
		Seed:     5,
	}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local.Assignments, remote.Assignments) {
		t.Fatalf("HTTP-backed assignments %v != trace-backed %v", remote.Assignments, local.Assignments)
	}
	if math.Abs(local.Summary.CarbonGrams-remote.Summary.CarbonGrams) > 1e-9 {
		t.Fatalf("HTTP-backed carbon %v != trace-backed %v",
			remote.Summary.CarbonGrams, local.Summary.CarbonGrams)
	}
}
