package federation

import (
	"math"
	"reflect"
	"testing"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/metrics"
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

func fifoSpec(name string, tr *carbon.Trace) ClusterSpec {
	return ClusterSpec{
		Name:         name,
		Config:       sim.Config{NumExecutors: 8, Trace: tr},
		NewScheduler: func(int64) sim.Scheduler { return &sched.FIFO{} },
	}
}

// clusterCounts is the number of jobs routed to each of n clusters.
func clusterCounts(assignments []int, n int) []int {
	counts := make([]int, n)
	for _, idx := range assignments {
		counts[idx]++
	}
	return counts
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
	if counts := clusterCounts(res.Assignments, 3); !reflect.DeepEqual(counts, []int{3, 3, 3}) {
		t.Fatalf("jobs per cluster = %v, want 3 each", counts)
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
	// Every job goes to the clean cluster; the dirty one stays dark.
	if counts := clusterCounts(li.Assignments, 2); !reflect.DeepEqual(counts, []int{0, len(jobs)}) {
		t.Fatalf("jobs per cluster = %v, want all %d on the clean one", counts, len(jobs))
	}
}

// TestSummaryFoldsMemberRuns: Run's summary is the fold of independent
// member simulations over each member's share of Assignments, seeded by
// clusterSeed: carbon summed in spec order, the slowest member's ECT as
// the makespan, and every JCT summed, then divided by the batch size. A
// dark member runs nothing and adds nothing.
func TestSummaryFoldsMemberRuns(t *testing.T) {
	// Two executors leave several jobs queued at once, so Decima's
	// seeded sampling decides the order and a wrong seed shows.
	decimaSpec := func(name string, tr *carbon.Trace) ClusterSpec {
		c := fifoSpec(name, tr)
		c.Config.NumExecutors = 2
		c.NewScheduler = func(seed int64) sim.Scheduler { return sched.NewDecima(seed) }
		return c
	}
	clusters := []ClusterSpec{
		decimaSpec("A", stepTrace(t, "A", []float64{300, 120, 300, 120, 300, 120, 300, 120})),
		decimaSpec("B", stepTrace(t, "B", []float64{100, 400, 100, 400, 100, 400, 100, 400})),
		decimaSpec("C", flatTrace(t, "C", 900, 8)),
	}
	clusters[1].Name = "west" // the seed derives from the name
	const fedSeed = 9
	// Jobs of unequal shapes, so the order Decima samples changes the
	// JCTs and the carbon.
	jobs := make([]*dag.Job, 12)
	for i := range jobs {
		b := dag.NewBuilder(i, "fed")
		b.Chain(b.Stage("map", 1+i%4, float64(20+15*(i%3))), b.Stage("reduce", 1+i%2, 25))
		jobs[i] = b.MustBuild()
		jobs[i].Arrival = float64(i) * 10
	}
	res, err := (&Federation{Clusters: clusters, Router: NewLowestIntensity(), Seed: fedSeed}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// The jobs arrive in input order, so each share in input order is
	// the batch its member simulated.
	shares := make([][]*dag.Job, len(clusters))
	for ji, ci := range res.Assignments {
		shares[ci] = append(shares[ci], jobs[ji])
	}
	if len(shares[0]) == 0 || len(shares[1]) == 0 || len(shares[2]) != 0 {
		t.Fatalf("jobs per cluster = %v, want A and B busy and C dark", clusterCounts(res.Assignments, 3))
	}
	var want metrics.FederationSummary
	var sumJCT float64
	for ci, c := range clusters {
		if len(shares[ci]) == 0 {
			continue
		}
		r, err := sim.Run(c.Config, shares[ci], c.NewScheduler(clusterSeed(fedSeed, c.Name, ci)))
		if err != nil {
			t.Fatal(err)
		}
		want.CarbonGrams += r.CarbonGrams
		want.Makespan = math.Max(want.Makespan, r.ECT)
		for _, jct := range r.JCTs {
			sumJCT += jct
		}
	}
	want.AvgJCT = sumJCT / float64(len(jobs))
	if res.Summary != want {
		t.Fatalf("summary = %+v, want the fold of the member runs %+v", res.Summary, want)
	}
}

func TestForecastAwareHysteresis(t *testing.T) {
	r := NewForecastAware() // default 5% margin
	states := func(a, b float64) []ClusterState {
		return []ClusterState{{Low: a, High: a}, {Low: b, High: b}}
	}
	if got := r.Route(states(100, 95)); got != 1 {
		t.Fatalf("initial pick = %d, want 1 (cleaner)", got)
	}
	// Challenger A (100) is within 5% of the incumbent B (102): stick.
	if got := r.Route(states(100, 102)); got != 1 {
		t.Fatalf("within-margin pick = %d, want incumbent 1", got)
	}
	// Incumbent degrades past the margin: switch.
	if got := r.Route(states(100, 120)); got != 0 {
		t.Fatalf("beyond-margin pick = %d, want 0", got)
	}
	// The new incumbent now enjoys the same stickiness.
	if got := r.Route(states(103, 100)); got != 0 {
		t.Fatalf("post-switch within-margin pick = %d, want incumbent 0", got)
	}
	// Reset clears the anchor: a fresh run picks the current best.
	r.Reset()
	if got := r.Route(states(100, 102)); got != 0 {
		t.Fatalf("post-reset pick = %d, want 0", got)
	}
}

// badRouter returns an out-of-range index.
type badRouter struct{}

func (badRouter) Name() string             { return "bad" }
func (badRouter) Reset()                   {}
func (badRouter) Route([]ClusterState) int { return 99 }

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
}

// recordingRouter routes round-robin and keeps a copy of every state
// slice it is shown.
type recordingRouter struct {
	RoundRobin
	seen [][]ClusterState
}

func (r *recordingRouter) Route(clusters []ClusterState) int {
	r.seen = append(r.seen, append([]ClusterState(nil), clusters...))
	return r.RoundRobin.Route(clusters)
}

// TestRouterReadsMemberTraces: every member's routing state is read
// from that member's own trace, the one its simulation charges carbon
// against — its intensity at the job's arrival and its bounds over the
// job's span on that member — even when two members' traces differ.
func TestRouterReadsMemberTraces(t *testing.T) {
	trA := stepTrace(t, "A", []float64{100, 400, 150, 380, 90, 420, 110, 400})
	trB := stepTrace(t, "B", []float64{300, 120, 280, 110, 320, 100, 300, 130})
	clusters := []ClusterSpec{fifoSpec("A", trA), fifoSpec("B", trB)}
	clusters[1].Config.PerJobCap = 2 // B's spans are longer than A's
	jobs := make([]*dag.Job, 6)
	for i := range jobs {
		b := dag.NewBuilder(i, "fed")
		b.Chain(b.Stage("map", 4+2*i, 20), b.Stage("reduce", 1, 15))
		jobs[i] = b.MustBuild()
		jobs[i].Arrival = float64(i) * 70
	}
	r := &recordingRouter{}
	if _, err := (&Federation{Clusters: clusters, Router: r, Seed: 1}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	if len(r.seen) != len(jobs) {
		t.Fatalf("router saw %d arrivals, want %d", len(r.seen), len(jobs))
	}
	for ji, states := range r.seen {
		j := jobs[ji]
		for ci, c := range clusters {
			k := c.Config.NumExecutors
			if c.Config.PerJobCap > 0 {
				k = c.Config.PerJobCap
			}
			tr := c.Config.Trace
			span := math.Max(j.CriticalPathLength(), j.TotalWork()/float64(k))
			lo, hi := tr.Bounds(j.Arrival, span)
			want := ClusterState{Intensity: tr.At(j.Arrival), Low: lo, High: hi}
			if states[ci] != want {
				t.Errorf("job %d, cluster %s: state %+v, want %+v", ji, c.Name, states[ci], want)
			}
		}
		if states[0] == states[1] {
			t.Errorf("job %d: both clusters show %+v; the traces differ", ji, states[0])
		}
	}
}
