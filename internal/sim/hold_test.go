package sim

import (
	"errors"
	"math"
	"testing"

	"pcaps/internal/dag"
)

// rootPlus builds a job whose root feeds the given sibling stages, each
// specified as {numTasks, duration}.
func rootPlus(t testing.TB, rootTasks int, rootDur float64, siblings ...[2]float64) *dag.Job {
	t.Helper()
	b := dag.NewBuilder(0, "fork")
	root := b.Stage("", rootTasks, rootDur)
	for _, s := range siblings {
		b.Edge(root, b.Stage("", int(s[0]), s[1]))
	}
	return b.MustBuild()
}

// TestExpireHoldStaleByLaterReservation exercises the holdExpire
// comparison: an expiry event from an earlier reservation fires while the
// executor is held under a newer reservation and must be ignored, with
// the release happening only at the newer deadline.
func TestExpireHoldStaleByLaterReservation(t *testing.T) {
	// Stage 0 (1 task, 1 s) feeds stage 1 (1 task, 1 s) and stage 2
	// (1 task, 20 s). Executor 0 runs stage 0, is held at t=1 (expiry
	// t=6), is re-dispatched to stage 1 at t=1, and is held again at t=2
	// (expiry t=7). The t=6 event fires mid-hold and must be a no-op;
	// the t=7 event releases. Executor 1 runs stage 2 until t=21.
	b := dag.NewBuilder(0, "stale")
	a := b.Stage("", 1, 1)
	s1 := b.Stage("", 1, 1)
	long := b.Stage("", 1, 20)
	b.Edge(a, s1).Edge(a, long)
	j := b.MustBuild()

	c := cfg(t, 2)
	c.HoldExecutors = true
	c.IdleTimeout = 5
	res, err := Run(c, []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ECT-21) > 1e-9 {
		t.Fatalf("ECT = %v, want 21", res.ECT)
	}
	// Executor 0: busy 0–2, then held 2–7 (the stale t=6 event must not
	// cut the hold short). Executor 1: busy 1–21. 27 exec-s at 300 g/kWh.
	want := 27 * 300.0 / 3600
	if math.Abs(res.CarbonGrams-want) > 1e-6 {
		t.Fatalf("CarbonGrams = %v, want %v (stale expiry released early?)", res.CarbonGrams, want)
	}
}

// TestIdleTimeoutNegativeHoldsForLifetime checks standalone mode without
// dynamic allocation: a negative IdleTimeout never schedules an expiry,
// so a held executor burns carbon until its job completes.
func TestIdleTimeoutNegativeHoldsForLifetime(t *testing.T) {
	b := dag.NewBuilder(0, "lifetime")
	a := b.Stage("", 1, 1)
	s1 := b.Stage("", 1, 1)
	long := b.Stage("", 1, 20)
	b.Edge(a, s1).Edge(a, long)
	j := b.MustBuild()

	c := cfg(t, 2)
	c.HoldExecutors = true
	c.IdleTimeout = -1
	res, err := Run(c, []*dag.Job{j}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	// Executor 0: busy 0–2, held 2–21 (released only by job completion),
	// 21 exec-s. Executor 1: busy 1–21, 20 exec-s. 41 total at 300 g/kWh.
	want := 41 * 300.0 / 3600
	if math.Abs(res.CarbonGrams-want) > 1e-6 {
		t.Fatalf("CarbonGrams = %v, want %v (lifetime hold released early?)", res.CarbonGrams, want)
	}
}

// TestFinishStageReleasesHeldExecutors checks that job completion frees
// the whole held pool at once: a second job blocked behind held
// executors starts exactly when the first job finishes.
func TestFinishStageReleasesHeldExecutors(t *testing.T) {
	// Job 0 has two root stages: 10 s and 2 s. The 2 s executor is held
	// (nothing else runnable) until job 0 completes at t=10.
	b := dag.NewBuilder(0, "roots")
	b.Stage("", 1, 10)
	b.Stage("", 1, 2)
	j0 := b.MustBuild()
	b2 := dag.NewBuilder(1, "blocked")
	b2.Stage("", 1, 5)
	j1 := b2.MustBuild()

	c := cfg(t, 2)
	c.HoldExecutors = true
	c.IdleTimeout = 60
	res, err := Run(c, []*dag.Job{j0, j1}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.JCTs[0]-10) > 1e-9 {
		t.Fatalf("job0 JCT = %v, want 10", res.JCTs[0])
	}
	if math.Abs(res.JCTs[1]-15) > 1e-9 {
		t.Fatalf("blocked job JCT = %v, want 15 (held executors not released?)", res.JCTs[1])
	}
	// The held window burns carbon: job 0's 10 + 2 busy + 8 held exec-s,
	// then job 1's 5 busy exec-s.
	want := 25 * 300.0 / 3600
	if math.Abs(res.CarbonGrams-want) > 1e-6 {
		t.Fatalf("CarbonGrams = %v, want %v", res.CarbonGrams, want)
	}
}

// saturatedPicker always returns the first runnable stage with a limit of
// 1 and never defers — after the first assignment the stage is saturated,
// so every later Pick in the same event returns a stage that can accept
// no executor.
type saturatedPicker struct{ picks int }

func (s *saturatedPicker) Name() string { return "saturated" }
func (s *saturatedPicker) Pick(c *Cluster) Decision {
	s.picks++
	r := c.Runnable()
	if len(r) == 0 {
		return DeferDecision
	}
	return Decision{Ref: r[0], Limit: 1}
}

// TestSaturatedDecisionTreatedAsDefer checks the no-progress guard: a
// scheduler that keeps returning a saturated stage must not livelock the
// event loop (the assignment loop treats the zero-bind as a defer), and
// the batch still completes serially under the limit.
func TestSaturatedDecisionTreatedAsDefer(t *testing.T) {
	b := dag.NewBuilder(0, "wide")
	b.Stage("", 4, 10)
	j := b.MustBuild()
	c := cfg(t, 4)
	c.MaxEvents = 10_000 // fail fast if the guard regresses into livelock
	s := &saturatedPicker{}
	res, err := Run(c, []*dag.Job{j}, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ECT-40) > 1e-9 {
		t.Fatalf("ECT = %v, want 40 (limit-1 serialization)", res.ECT)
	}
}

// emptyPicker returns a non-defer decision with no stage.
type emptyPicker struct{}

func (emptyPicker) Name() string           { return "empty" }
func (emptyPicker) Pick(*Cluster) Decision { return Decision{} }

// TestEmptyDecisionIsNoProgressError checks that a scheduler returning
// neither a stage nor a defer is reported as errNoProgress instead of
// spinning.
func TestEmptyDecisionIsNoProgressError(t *testing.T) {
	j := chainJob(t, 0, 10)
	_, err := Run(cfg(t, 1), []*dag.Job{j}, emptyPicker{})
	if !errors.Is(err, errNoProgress) {
		t.Fatalf("err = %v, want errNoProgress", err)
	}
}

// allocProbe measures allocations of the view accessors mid-run, after
// enough events have passed for the cluster to be in a steady state.
type allocProbe struct {
	t     *testing.T
	picks int
	inner greedy
}

func (p *allocProbe) Name() string { return "allocprobe" }
func (p *allocProbe) Pick(c *Cluster) Decision {
	p.picks++
	if p.picks == 5 {
		if avg := testing.AllocsPerRun(50, func() {
			_ = c.Runnable()
			_ = c.ActiveJobs()
			_ = c.OutstandingWork()
		}); avg != 0 {
			p.t.Errorf("view accessors allocated %.1f/op inside one event", avg)
		}
	}
	return p.inner.Pick(c)
}

// TestViewsAllocationFreeWithinEvent checks the epoch cache: repeated
// Runnable/ActiveJobs/OutstandingWork calls within one scheduling event
// must not allocate.
func TestViewsAllocationFreeWithinEvent(t *testing.T) {
	jobs := []*dag.Job{
		rootPlus(t, 2, 7, [2]float64{3, 5}, [2]float64{2, 9}),
		rootPlus(t, 1, 13, [2]float64{2, 4}),
	}
	jobs[1].ID = 1
	probe := &allocProbe{t: t}
	if _, err := Run(cfg(t, 3), jobs, probe); err != nil {
		t.Fatal(err)
	}
	if probe.picks < 5 {
		t.Fatalf("probe ran %d picks, need ≥5", probe.picks)
	}
}
