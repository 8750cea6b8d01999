package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
)

// greedy is a minimal work-conserving test scheduler: first runnable
// stage, no parallelism limit.
type greedy struct{}

func (greedy) Name() string { return "greedy" }

func (greedy) Pick(c *Cluster) Decision {
	r := c.Runnable()
	if len(r) == 0 {
		return DeferDecision
	}
	return Decision{Ref: r[0]}
}

// alwaysDefer never schedules anything.
type alwaysDefer struct{}

func (alwaysDefer) Name() string           { return "defer" }
func (alwaysDefer) Pick(*Cluster) Decision { return DeferDecision }

func flatTrace(t testing.TB, intensity float64, samples int) *carbon.Trace {
	t.Helper()
	vals := make([]float64, samples)
	for i := range vals {
		vals[i] = intensity
	}
	tr, err := carbon.New("flat", 60, vals)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func chainJob(t testing.TB, id int, durations ...float64) *dag.Job {
	t.Helper()
	b := dag.NewBuilder(id, "chain")
	var ids []int
	for _, d := range durations {
		ids = append(ids, b.Stage("", 1, d))
	}
	b.Chain(ids...)
	return b.MustBuild()
}

func cfg(t testing.TB, k int) Config {
	t.Helper()
	return Config{NumExecutors: k, Trace: flatTrace(t, 300, 1000)}
}

func TestRunValidation(t *testing.T) {
	j := chainJob(t, 0, 10)
	if _, err := Run(Config{NumExecutors: 1}, []*dag.Job{j}, greedy{}); err == nil {
		t.Fatal("missing trace accepted")
	}
	if _, err := Run(cfg(t, 0), []*dag.Job{j}, greedy{}); err == nil {
		t.Fatal("zero executors accepted")
	}
	if _, err := Run(cfg(t, 1), nil, greedy{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	bad := &dag.Job{Stages: []*dag.Stage{{ID: 0, NumTasks: 0, TaskDuration: 1}}}
	if _, err := Run(cfg(t, 1), []*dag.Job{bad}, greedy{}); err == nil {
		t.Fatal("invalid job accepted")
	}
}

func TestChainJobMakespan(t *testing.T) {
	// A serial chain on any number of executors takes the sum of
	// durations: precedence forces sequential execution.
	j := chainJob(t, 0, 10, 20, 30)
	res, err := Run(cfg(t, 4), []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ECT-60) > 1e-9 {
		t.Fatalf("ECT = %v, want 60", res.ECT)
	}
	if math.Abs(res.AvgJCT-60) > 1e-9 {
		t.Fatalf("AvgJCT = %v, want 60", res.AvgJCT)
	}
}

func TestParallelStageWaves(t *testing.T) {
	// 8 tasks of 10 s on 4 executors: two waves, 20 s.
	b := dag.NewBuilder(0, "wide")
	b.Stage("", 8, 10)
	j := b.MustBuild()
	res, err := Run(cfg(t, 4), []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ECT-20) > 1e-9 {
		t.Fatalf("ECT = %v, want 20", res.ECT)
	}
}

func TestParallelismLimitHonored(t *testing.T) {
	// 8 tasks of 10 s, 4 executors, but limit 2: four waves, 40 s.
	b := dag.NewBuilder(0, "limited")
	b.Stage("", 8, 10)
	j := b.MustBuild()
	limited := pickWithLimit{limit: 2}
	res, err := Run(cfg(t, 4), []*dag.Job{j}, &limited)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ECT-40) > 1e-9 {
		t.Fatalf("ECT = %v, want 40", res.ECT)
	}
}

type pickWithLimit struct{ limit int }

func (p *pickWithLimit) Name() string { return "limited" }
func (p *pickWithLimit) Pick(c *Cluster) Decision {
	r := c.Runnable()
	if len(r) == 0 {
		return DeferDecision
	}
	return Decision{Ref: r[0], Limit: p.limit}
}

func TestMoveDelayAppliedAcrossJobs(t *testing.T) {
	// One executor, one single-stage job, move delay 5: 5 + 10 = 15.
	b := dag.NewBuilder(0, "one")
	b.Stage("", 1, 10)
	j := b.MustBuild()
	c := cfg(t, 1)
	c.MoveDelay = 5
	res, err := Run(c, []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ECT-15) > 1e-9 {
		t.Fatalf("ECT = %v, want 15", res.ECT)
	}
	// A chain within the same job pays the delay only once.
	j2 := chainJob(t, 0, 10, 10)
	res, err = Run(c, []*dag.Job{j2}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ECT-25) > 1e-9 {
		t.Fatalf("chain ECT = %v, want 25", res.ECT)
	}
}

func TestPerJobCap(t *testing.T) {
	// One 8-task stage, 8 executors, but per-job cap 2: 4 waves of 10 s.
	b := dag.NewBuilder(0, "capped")
	b.Stage("", 8, 10)
	j := b.MustBuild()
	c := cfg(t, 8)
	c.PerJobCap = 2
	res, err := Run(c, []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ECT-40) > 1e-9 {
		t.Fatalf("ECT = %v, want 40", res.ECT)
	}
}

func TestArrivalsDelayStart(t *testing.T) {
	j := chainJob(t, 0, 10)
	j.Arrival = 100
	res, err := Run(cfg(t, 1), []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ECT-110) > 1e-9 {
		t.Fatalf("ECT = %v, want 110", res.ECT)
	}
	if math.Abs(res.JCTs[0]-10) > 1e-9 {
		t.Fatalf("JCT = %v, want 10", res.JCTs[0])
	}
}

// TestRunUnsortedBatch pins how Run admits a batch that is not sorted by
// arrival: by arrival, ties in batch order, with results reported in
// batch order. Jobs 0 and 2 arrive at t=10, the instant job 1's task ends
// on the one executor. Both are admitted before that completion is
// processed (an admission beats an event at a tie), job 0 first; then
// job 0, first in batch order, takes the executor. The Observer sees
// the pass after every admission and every event.
func TestRunUnsortedBatch(t *testing.T) {
	jobs := []*dag.Job{chainJob(t, 0, 10), chainJob(t, 1, 10), chainJob(t, 2, 10)}
	jobs[0].Arrival, jobs[1].Arrival, jobs[2].Arrival = 10, 0, 10
	c := cfg(t, 1)
	var seen []string
	c.Observer = func(c *Cluster) {
		s := fmt.Sprintf("t=%v:", c.Now())
		for _, j := range c.ActiveJobs() {
			s += fmt.Sprintf(" %d", j.Job.ID)
		}
		seen = append(seen, s)
	}
	res, err := Run(c, jobs, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{10, 10, 20}; !reflect.DeepEqual(res.JCTs, want) {
		t.Errorf("JCTs = %v, want %v in batch order", res.JCTs, want)
	}
	if res.ECT != 30 || res.Events != 6 {
		t.Errorf("ECT = %v, Events = %d; want 30, 6", res.ECT, res.Events)
	}
	want := []string{"t=0: 1", "t=10: 0 1", "t=10: 0 1 2", "t=10: 0 2", "t=20: 2", "t=30:"}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("observed passes %q, want %q", seen, want)
	}
}

func TestCarbonAccountingFlatTrace(t *testing.T) {
	// 1 executor, 120 s of work at flat 300 g/kWh: 120·300/3600 = 10 g.
	j := chainJob(t, 0, 120)
	res, err := Run(cfg(t, 1), []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CarbonGrams-10) > 1e-6 {
		t.Fatalf("CarbonGrams = %v, want 10", res.CarbonGrams)
	}
	if math.Abs(res.JobCarbon[0]-10) > 1e-6 {
		t.Fatalf("JobCarbon = %v, want 10", res.JobCarbon[0])
	}
	// Usage timeline: 60 s in each of the first two intervals.
	if len(res.Usage) != 2 || math.Abs(res.Usage[0]-60) > 1e-9 || math.Abs(res.Usage[1]-60) > 1e-9 {
		t.Fatalf("Usage = %v", res.Usage)
	}
}

func TestCarbonAccountingVaryingTrace(t *testing.T) {
	// Intensity 600 for interval 0, 0 for interval 1. Work spans both.
	tr, err := carbon.New("step", 60, []float64{600, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	j := chainJob(t, 0, 120)
	res, err := Run(Config{NumExecutors: 1, Trace: tr}, []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	want := 60 * 600.0 / 3600 // only the first interval emits
	if math.Abs(res.CarbonGrams-want) > 1e-6 {
		t.Fatalf("CarbonGrams = %v, want %v", res.CarbonGrams, want)
	}
}

func TestUsageConservation(t *testing.T) {
	// Total busy executor-seconds equals total work when there are no
	// move delays and no jitter.
	jobs := []*dag.Job{chainJob(t, 0, 25, 35), chainJob(t, 1, 40)}
	jobs[1].Arrival = 10
	res, err := Run(cfg(t, 3), jobs, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	var usage float64
	for _, u := range res.Usage {
		usage += u
	}
	if math.Abs(usage-res.TotalWork) > 1e-6 {
		t.Fatalf("usage %v != work %v", usage, res.TotalWork)
	}
}

func TestDiamondPrecedence(t *testing.T) {
	// Diamond: 0(10) → {1(20), 2(5)} → 3(30). With 2 executors the two
	// middle stages run in parallel: 10 + 20 + 30 = 60.
	b := dag.NewBuilder(0, "diamond")
	s0 := b.Stage("", 1, 10)
	s1 := b.Stage("", 1, 20)
	s2 := b.Stage("", 1, 5)
	s3 := b.Stage("", 1, 30)
	b.Edge(s0, s1).Edge(s0, s2).Edge(s1, s3).Edge(s2, s3)
	j := b.MustBuild()
	res, err := Run(cfg(t, 2), []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ECT-60) > 1e-9 {
		t.Fatalf("ECT = %v, want 60", res.ECT)
	}
}

func TestDeferringSchedulerFailsJobs(t *testing.T) {
	j := chainJob(t, 0, 10)
	_, err := Run(cfg(t, 1), []*dag.Job{j}, alwaysDefer{})
	if err == nil {
		t.Fatal("expected incomplete-job error")
	}
}

func TestDeterministicRuns(t *testing.T) {
	jobs := []*dag.Job{chainJob(t, 0, 13, 7), chainJob(t, 1, 9)}
	c := cfg(t, 2)
	c.DurationJitter = 0.2
	c.Seed = 42
	a, err := Run(c, jobs, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c, jobs, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if a.ECT != b.ECT || a.CarbonGrams != b.CarbonGrams {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", a.ECT, a.CarbonGrams, b.ECT, b.CarbonGrams)
	}
	c.Seed = 43
	d, err := Run(c, jobs, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if a.ECT == d.ECT {
		t.Fatal("jitter seed had no effect")
	}
}

func TestJobTemplatesNotMutated(t *testing.T) {
	j := chainJob(t, 0, 10, 20)
	if _, err := Run(cfg(t, 1), []*dag.Job{j}, greedy{}); err != nil {
		t.Fatal(err)
	}
	// Run again from the same template: identical result proves the
	// first run did not mutate shared state.
	res, err := Run(cfg(t, 1), []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ECT-30) > 1e-9 {
		t.Fatalf("second run ECT = %v, want 30", res.ECT)
	}
}

func TestMaxNewBoundsBinding(t *testing.T) {
	// A scheduler that allows only 1 new executor per decision still
	// completes, but the first wave starts with fewer executors.
	b := dag.NewBuilder(0, "wide")
	b.Stage("", 4, 10)
	j := b.MustBuild()
	s := &maxNewOne{}
	res, err := Run(cfg(t, 4), []*dag.Job{j}, s)
	if err != nil {
		t.Fatal(err)
	}
	// Each Pick binds one executor; the scheduling loop keeps calling
	// Pick within the same event, so all 4 still start at t=0.
	if math.Abs(res.ECT-10) > 1e-9 {
		t.Fatalf("ECT = %v, want 10", res.ECT)
	}
	if s.calls < 4 {
		t.Fatalf("Pick called %d times, want ≥4", s.calls)
	}
}

type maxNewOne struct{ calls int }

func (m *maxNewOne) Name() string { return "maxnew1" }
func (m *maxNewOne) Pick(c *Cluster) Decision {
	m.calls++
	r := c.Runnable()
	if len(r) == 0 {
		return DeferDecision
	}
	return Decision{Ref: r[0], MaxNew: 1}
}

func TestClusterAccessors(t *testing.T) {
	tr := flatTrace(t, 250, 100)
	j := chainJob(t, 0, 10)
	probe := &accessorProbe{t: t}
	if _, err := Run(Config{NumExecutors: 3, Trace: tr, ForecastHorizon: 120}, []*dag.Job{j}, probe); err != nil {
		t.Fatal(err)
	}
	if !probe.checked {
		t.Fatal("probe never ran")
	}
}

type accessorProbe struct {
	t       *testing.T
	checked bool
}

func (p *accessorProbe) Name() string { return "probe" }
func (p *accessorProbe) Pick(c *Cluster) Decision {
	if !p.checked {
		p.checked = true
		if c.K() != 3 {
			p.t.Errorf("K = %d", c.K())
		}
		if c.Carbon() != 250 {
			p.t.Errorf("Carbon = %v", c.Carbon())
		}
		if lo, hi := c.CarbonBounds(); lo != 250 || hi != 250 {
			p.t.Errorf("Bounds = %v,%v", lo, hi)
		}
		if c.IdleCount() != 3 || c.BusyCount() != 0 {
			p.t.Errorf("idle/busy = %d/%d", c.IdleCount(), c.BusyCount())
		}
		if got := c.OutstandingWork(); got != 10 {
			p.t.Errorf("OutstandingWork = %v", got)
		}
		if n := len(c.ActiveJobs()); n != 1 {
			p.t.Errorf("ActiveJobs = %d", n)
		}
	}
	r := c.Runnable()
	if len(r) == 0 {
		return DeferDecision
	}
	return Decision{Ref: r[0]}
}

func TestMultiJobInterleaving(t *testing.T) {
	// Two 1-stage jobs of 2 tasks × 10 s on 2 executors. FIFO-greedy
	// gives job 0 both executors, then job 1: ECT 20, JCTs {10, 20}.
	mk := func(id int) *dag.Job {
		b := dag.NewBuilder(id, "w")
		b.Stage("", 2, 10)
		return b.MustBuild()
	}
	res, err := Run(cfg(t, 2), []*dag.Job{mk(0), mk(1)}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ECT-20) > 1e-9 {
		t.Fatalf("ECT = %v, want 20", res.ECT)
	}
	if math.Abs(res.JCTs[0]-10) > 1e-9 || math.Abs(res.JCTs[1]-20) > 1e-9 {
		t.Fatalf("JCTs = %v", res.JCTs)
	}
}

func TestHoldExecutorsBlocksAndBurnsCarbon(t *testing.T) {
	// Standalone-mode semantics (Appendix A.1.2): job 0 is a fork-join
	// DAG — s0 (30 s) and s1 (10 s) in parallel, then s2 (10 s). With 2
	// executors, the one that finishes s1 at t=10 is HELD by job 0 until
	// the job completes at t=40, burning carbon while idle and blocking
	// job 1 (a 10 s one-stage job that arrived at t=0).
	b := dag.NewBuilder(0, "forkjoin")
	s0 := b.Stage("", 1, 30)
	s1 := b.Stage("", 1, 10)
	s2 := b.Stage("", 1, 10)
	b.Edge(s0, s2).Edge(s1, s2)
	j0 := b.MustBuild()
	b2 := dag.NewBuilder(1, "late")
	b2.Stage("", 1, 10)
	j1 := b2.MustBuild()

	c := cfg(t, 2)
	c.HoldExecutors = true
	res, err := Run(c, []*dag.Job{j0, j1}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 only starts after job 0 releases its executors at t=40.
	if math.Abs(res.JCTs[1]-50) > 1e-9 {
		t.Fatalf("blocked job JCT = %v, want 50", res.JCTs[1])
	}
	// Job 0's active executor-seconds: exec0 busy 0-40 (40), exec1 busy
	// 0-10 then held 10-40 (40 total): 80 exec-s at 300 g/kWh.
	if want := 80 * 300.0 / 3600; math.Abs(res.JobCarbon[0]-want) > 1e-6 {
		t.Fatalf("job0 carbon = %v, want %v", res.JobCarbon[0], want)
	}
	// Job 1 runs 10 s on one executor after the release.
	if want := 10 * 300.0 / 3600; math.Abs(res.JobCarbon[1]-want) > 1e-6 {
		t.Fatalf("job1 carbon = %v, want %v", res.JobCarbon[1], want)
	}
	// Without holding, the same batch costs only the worked seconds
	// (60 exec-s) and job 1 finishes at t=10 via the second executor...
	c.HoldExecutors = false
	free, err := Run(c, []*dag.Job{j0, j1}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if free.CarbonGrams >= res.CarbonGrams {
		t.Fatalf("hold mode should cost more carbon: %v vs %v", res.CarbonGrams, free.CarbonGrams)
	}
	if free.AvgJCT >= res.AvgJCT {
		t.Fatalf("hold mode should cost more JCT: %v vs %v", res.AvgJCT, free.AvgJCT)
	}
}

func TestHoldExecutorsReservedServeOwnJob(t *testing.T) {
	// A chain job in hold mode reuses its held executor for the next
	// stage without returning to the pool: ECT equals the chain length.
	j := chainJob(t, 0, 10, 20, 30)
	c := cfg(t, 2)
	c.HoldExecutors = true
	res, err := Run(c, []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ECT-60) > 1e-9 {
		t.Fatalf("ECT = %v, want 60", res.ECT)
	}
}

func TestFailureInjection(t *testing.T) {
	b := dag.NewBuilder(0, "wide")
	b.Stage("", 40, 5)
	j := b.MustBuild()
	c := cfg(t, 4)
	c.FailureRate = 0.3
	c.Seed = 9
	res, err := Run(c, []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskRetries == 0 {
		t.Fatal("30% failure rate produced no retries")
	}
	// Every retry costs one extra task duration of busy time.
	var usage float64
	for _, u := range res.Usage {
		usage += u
	}
	want := res.TotalWork + float64(res.TaskRetries)*5
	if math.Abs(usage-want) > 1e-6 {
		t.Fatalf("usage %v, want %v (work + retries)", usage, want)
	}
	// Failure-free run is cheaper and faster.
	c.FailureRate = 0
	clean, err := Run(c, []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.ECT >= res.ECT || clean.CarbonGrams >= res.CarbonGrams {
		t.Fatalf("failures should cost time and carbon: %v/%v vs %v/%v",
			clean.ECT, clean.CarbonGrams, res.ECT, res.CarbonGrams)
	}
}

func TestFailureRateValidation(t *testing.T) {
	j := chainJob(t, 0, 10)
	c := cfg(t, 1)
	c.FailureRate = 0.95
	if _, err := Run(c, []*dag.Job{j}, greedy{}); err == nil {
		t.Fatal("failure rate > 0.9 accepted")
	}
	c.FailureRate = -0.1
	if _, err := Run(c, []*dag.Job{j}, greedy{}); err == nil {
		t.Fatal("negative failure rate accepted")
	}
}

// TestRuntimeInvariants drives a full randomized batch through an
// invariant-checking probe: stages handed to schedulers are always truly
// runnable, counts stay within bounds, and the clock never regresses.
func TestRuntimeInvariants(t *testing.T) {
	b := dag.NewBuilder(0, "a")
	s0 := b.Stage("", 3, 7)
	s1 := b.Stage("", 2, 5)
	b.Edge(s0, s1)
	j0 := b.MustBuild()
	b2 := dag.NewBuilder(1, "b")
	t0 := b2.Stage("", 4, 3)
	t1 := b2.Stage("", 1, 9)
	t2 := b2.Stage("", 2, 4)
	b2.Edge(t0, t1).Edge(t0, t2)
	j1 := b2.MustBuild()
	j1.Arrival = 5

	c := cfg(t, 3)
	c.HoldExecutors = true
	c.IdleTimeout = 10
	probe := &invariantProbe{t: t, k: 3}
	if _, err := Run(c, []*dag.Job{j0, j1}, probe); err != nil {
		t.Fatal(err)
	}
	if probe.calls == 0 {
		t.Fatal("probe never invoked")
	}
}

type invariantProbe struct {
	t     *testing.T
	k     int
	last  float64
	calls int
}

func (p *invariantProbe) Name() string { return "invariants" }
func (p *invariantProbe) Pick(c *Cluster) Decision {
	p.calls++
	if c.Now() < p.last {
		p.t.Fatalf("clock regressed: %v after %v", c.Now(), p.last)
	}
	p.last = c.Now()
	if c.BusyCount() < 0 || c.BusyCount() > p.k || c.IdleCount() < 0 {
		p.t.Fatalf("counts out of range: busy %d idle %d", c.BusyCount(), c.IdleCount())
	}
	if c.RunningCount() > c.BusyCount() {
		p.t.Fatalf("running %d exceeds active %d", c.RunningCount(), c.BusyCount())
	}
	r := c.Runnable()
	for _, ref := range r {
		if !ref.Job.Arrived || ref.Job.Done {
			p.t.Fatal("runnable stage from inactive job")
		}
		if ref.Stage.ParentsLeft != 0 {
			p.t.Fatal("runnable stage with incomplete parents")
		}
		if ref.Stage.RemainingTasks() <= 0 {
			p.t.Fatal("runnable stage without tasks")
		}
	}
	if len(r) == 0 {
		return DeferDecision
	}
	return Decision{Ref: r[0]}
}

// chaosScheduler makes random (but legal) decisions: random runnable
// stage, random limit, random MaxNew, occasional defers. Under any such
// scheduler the engine must preserve its invariants and finish the batch
// whenever the scheduler is eventually work-conserving.
type chaosScheduler struct {
	rng *rand.Rand
}

func (c *chaosScheduler) Name() string { return "chaos" }
func (c *chaosScheduler) Pick(cl *Cluster) Decision {
	r := cl.Runnable()
	if len(r) == 0 {
		return DeferDecision
	}
	// Defer sometimes, but never when the cluster is fully idle, so the
	// batch always completes.
	if cl.BusyCount() > 0 && c.rng.Float64() < 0.2 {
		return DeferDecision
	}
	ref := r[c.rng.Intn(len(r))]
	return Decision{
		Ref:    ref,
		Limit:  c.rng.Intn(ref.Stage.Stage.NumTasks + 2),
		MaxNew: c.rng.Intn(4),
	}
}

func TestQuickChaosSchedulerPreservesInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nJobs := 1 + r.Intn(6)
		var jobs []*dag.Job
		for i := 0; i < nJobs; i++ {
			b := dag.NewBuilder(i, "chaos")
			n := 1 + r.Intn(6)
			for s := 0; s < n; s++ {
				b.Stage("", 1+r.Intn(4), 0.5+r.Float64()*8)
			}
			for child := 1; child < n; child++ {
				for p := 0; p < child; p++ {
					if r.Float64() < 0.3 {
						b.Edge(p, child)
					}
				}
			}
			j := b.MustBuild()
			j.Arrival = r.Float64() * 100
			jobs = append(jobs, j)
		}
		c := Config{
			NumExecutors:  1 + r.Intn(6),
			Trace:         mustQuickTrace(r),
			MoveDelay:     r.Float64() * 3,
			HoldExecutors: r.Intn(2) == 0,
			IdleTimeout:   5 + r.Float64()*20,
			PerJobCap:     r.Intn(4), // 0 = unlimited
			Seed:          seed,
		}
		res, err := Run(c, jobs, &chaosScheduler{rng: rand.New(rand.NewSource(seed + 1))})
		if err != nil {
			return false
		}
		// Conservation: busy time is at least the total work, and every
		// job completed no earlier than its arrival plus critical path.
		var usage float64
		for _, u := range res.Usage {
			usage += u
		}
		if usage < res.TotalWork-1e-6 {
			return false
		}
		for i, j := range jobs {
			if res.JCTs[i] < j.CriticalPathLength()-1e-6 {
				return false
			}
		}
		return res.CarbonGrams >= 0 && res.ECT > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func mustQuickTrace(r *rand.Rand) *carbon.Trace {
	vals := make([]float64, 50+r.Intn(100))
	for i := range vals {
		vals[i] = 50 + r.Float64()*700
	}
	tr, err := carbon.New("quick", 60, vals)
	if err != nil {
		panic(err)
	}
	return tr
}

func TestJobUsageTracking(t *testing.T) {
	jobs := []*dag.Job{chainJob(t, 0, 90), chainJob(t, 1, 30)}
	jobs[1].Arrival = 10
	c := cfg(t, 2)
	c.TrackJobUsage = true
	res, err := Run(c, jobs, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JobUsage) != 2 {
		t.Fatalf("JobUsage rows = %d", len(res.JobUsage))
	}
	// Per-job rows sum to each job's work, and rows sum to Usage.
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	if math.Abs(sum(res.JobUsage[0])-90) > 1e-6 || math.Abs(sum(res.JobUsage[1])-30) > 1e-6 {
		t.Fatalf("per-job usage = %v / %v", sum(res.JobUsage[0]), sum(res.JobUsage[1]))
	}
	var total float64
	for _, row := range res.JobUsage {
		total += sum(row)
	}
	if math.Abs(total-sum(res.Usage)) > 1e-6 {
		t.Fatalf("job usage %v != cluster usage %v", total, sum(res.Usage))
	}
	// Disabled by default.
	res2, err := Run(cfg(t, 2), jobs, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.JobUsage != nil {
		t.Fatal("JobUsage tracked without opt-in")
	}
}
