package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/workload"
)

// checkBookkeeping recomputes by brute force, over all executors and
// active jobs, what the cluster's incremental state claims: the free
// set, the reserved-idle set, the runnable-job and hold-ready counts,
// each job's executor count, whose sum is the active count, and each
// job's memoized remaining work, which must equal the sum over its
// stages bit for bit. A streamed job that completed in this step and
// awaits retirement must report no remaining work. It also checks the
// event list (checkEvents).
func checkBookkeeping(t testing.TB, c *Cluster) {
	t.Helper()
	var idle, reservedIdle []int
	attributed := map[*JobRun]int{}
	for _, e := range c.execs {
		switch {
		case e.busy && e.reserved != nil:
			t.Fatalf("t=%v: executor %d is busy and reserved", c.Now(), e.id)
		case e.busy:
			attributed[e.job]++
		case e.reserved != nil:
			reservedIdle = append(reservedIdle, e.id)
			attributed[e.reserved]++
		default:
			idle = append(idle, e.id)
		}
	}
	if got := c.free.peekN(c.free.len()); !slices.Equal(got, idle) || c.IdleCount() != len(idle) {
		t.Fatalf("t=%v: free set %v (IdleCount %d), idle executors %v", c.Now(), got, c.IdleCount(), idle)
	}
	if got := c.reservedIdle.peekN(c.reservedIdle.len()); !slices.Equal(got, reservedIdle) {
		t.Fatalf("t=%v: reserved-idle set %v, idle reserved executors %v", c.Now(), got, reservedIdle)
	}
	runnable, holdReady, executors := 0, 0, 0
	for _, j := range c.active {
		if len(j.runnable) > 0 {
			runnable++
			if len(j.held) > 0 {
				holdReady++
			}
		}
		if j.Executors != attributed[j] {
			t.Fatalf("t=%v: job %d counts %d executors, %d are bound to or held by it", c.Now(), j.Job.ID, j.Executors, attributed[j])
		}
		executors += j.Executors
		var remaining float64
		for _, st := range j.Stages {
			remaining += float64(st.Stage.NumTasks-st.Completed) * st.Stage.TaskDuration
		}
		if got := j.RemainingWork(); got != remaining {
			t.Fatalf("t=%v: job %d remaining work %v, its stages sum to %v", c.Now(), j.Job.ID, got, remaining)
		}
	}
	for _, j := range c.doneScratch {
		if got := j.RemainingWork(); got != 0 {
			t.Fatalf("t=%v: completed job %d reports %v remaining work", c.Now(), j.Job.ID, got)
		}
	}
	if c.runnableJobs != runnable || c.holdReadyCount != holdReady {
		t.Fatalf("t=%v: runnableJobs %d holdReadyCount %d, jobs say %d and %d", c.Now(), c.runnableJobs, c.holdReadyCount, runnable, holdReady)
	}
	if executors != c.activeCount {
		t.Fatalf("t=%v: jobs count %d executors, activeCount is %d", c.Now(), executors, c.activeCount)
	}
	checkEvents(t, c, reservedIdle)
}

// checkEvents checks the two sources of the future-event list: the
// expiry queue's live entries are hold expiries in strictly increasing
// (at, seq) order, none before the clock; the heap holds no hold expiry;
// and, in a cluster with pending events and an idle timeout, each
// reserved-idle executor has an expiry queued at its holdExpire. A
// restored cluster holds executors but has no events.
func checkEvents(t testing.TB, c *Cluster, reservedIdle []int) {
	t.Helper()
	type expiry struct {
		exec int32
		at   float64
	}
	live := c.expiries[c.expHead:]
	queued := make(map[expiry]bool, len(live))
	for i := range live {
		ev := &live[i]
		if ev.kind != evHoldExpire || ev.at < c.clock || i > 0 && !live[i-1].before(ev) {
			t.Fatalf("t=%v: expiry queue entry %d of %d is %+v (previous %+v)", c.Now(), i, len(live), *ev, live[max(i-1, 0)])
		}
		queued[expiry{ev.exec, ev.at}] = true
	}
	for _, ev := range c.events.items {
		if ev.kind == evHoldExpire {
			t.Fatalf("t=%v: hold expiry %+v in the event heap", c.Now(), ev)
		}
	}
	if c.events.Len() == 0 && len(live) == 0 || c.cfg.IdleTimeout < 0 {
		return
	}
	for _, id := range reservedIdle {
		if e := c.execs[id]; !queued[expiry{int32(id), e.holdExpire}] {
			t.Fatalf("t=%v: reserved-idle executor %d has no expiry queued at %v", c.Now(), id, e.holdExpire)
		}
	}
}

// checkJobUsage demands that, in every carbon interval, the per-job
// usage rows add up to the run's usage timeline, which advance
// accumulates from the active count independently.
func checkJobUsage(t testing.TB, res *Result) {
	t.Helper()
	if len(res.JobUsage) == 0 {
		t.Fatalf("%s: no per-job usage rows", res.Scheduler)
	}
	for j, row := range res.JobUsage {
		if len(row) > len(res.Usage) {
			t.Fatalf("%s: job %d has usage in %d intervals, the timeline in %d", res.Scheduler, j, len(row), len(res.Usage))
		}
	}
	for i, u := range res.Usage {
		var sum float64
		for _, row := range res.JobUsage {
			if i < len(row) {
				sum += row[i]
			}
		}
		if math.Abs(sum-u) > 1e-9*math.Abs(u) {
			t.Fatalf("%s: interval %d: per-job usage sums to %v, the timeline has %v", res.Scheduler, i, sum, u)
		}
	}
}

// bookkept wraps a scheduler, checking the bookkeeping at every Pick,
// of the cluster and of a clone of it (the state RunGroup forks onto).
type bookkept struct {
	Scheduler
	t     testing.TB
	picks int
}

func (b *bookkept) Pick(c *Cluster) Decision {
	checkBookkeeping(b.t, c)
	n, _, _ := c.clone()
	checkBookkeeping(b.t, n)
	b.picks++
	return b.Scheduler.Pick(c)
}

// invariantJobs is a mixed TPC-H/Alibaba batch dense enough to queue.
func invariantJobs(t testing.TB, seed int64) []*dag.Job {
	t.Helper()
	jobs, err := workload.Generate(workload.GenConfig{N: 6, Arrivals: arrivals.Poisson{MeanSec: 10}, Mix: workload.MixBoth, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestBookkeepingAfterEveryPass checks the incremental state after every
// pass of Run, in pool and hold mode with a per-job cap and move delay,
// and checks that a snapshot restored from each observed state derives
// the same counters. It also checks that the per-job usage rows sum to
// the usage timeline.
func TestBookkeepingAfterEveryPass(t *testing.T) {
	tr := carbon.SynthesizeAll(12, 60, 3)["CAISO"]
	for _, hold := range []bool{false, true} {
		for _, seed := range []int64{1, 2} {
			passes := 0
			cfg := Config{
				NumExecutors:  10,
				Trace:         tr,
				PerJobCap:     4,
				MoveDelay:     1,
				HoldExecutors: hold,
				IdleTimeout:   8,
				TrackJobUsage: true,
			}
			cfg.Observer = func(c *Cluster) {
				passes++
				checkBookkeeping(t, c)
				r, err := c.Snapshot().Restore()
				if err != nil {
					t.Fatalf("restore at t=%v: %v", c.Now(), err)
				}
				checkBookkeeping(t, r)
				if r.runnableJobs != c.runnableJobs || r.holdReadyCount != c.holdReadyCount {
					t.Fatalf("t=%v: restored counts %d/%d, live %d/%d", c.Now(), r.runnableJobs, r.holdReadyCount, c.runnableJobs, c.holdReadyCount)
				}
			}
			res, err := Run(cfg, invariantJobs(t, seed), &chaosScheduler{rng: rand.New(rand.NewSource(seed))})
			if err != nil {
				t.Fatal(err)
			}
			if passes < 100 {
				t.Fatalf("hold=%v seed=%d: %d passes; fixture too small", hold, seed, passes)
			}
			checkJobUsage(t, res)
		}
	}
}

// TestBookkeepingAtEveryPick checks the incremental state, and that of a
// clone of it, at every Pick of RunStream and of every RunGroup variant —
// those attached to the shared state and those forked off it — in pool
// and hold mode.
func TestBookkeepingAtEveryPick(t *testing.T) {
	tr := carbon.SynthesizeAll(12, 60, 3)["DE"]
	for _, hold := range []bool{false, true} {
		cfg := Config{NumExecutors: 12, Trace: tr, MoveDelay: 1, HoldExecutors: hold, IdleTimeout: 8, PerJobResults: true}
		jobs := invariantJobs(t, 7)

		s := &bookkept{Scheduler: &chaosScheduler{rng: rand.New(rand.NewSource(7))}, t: t}
		res, err := RunStream(cfg, &SliceSource{Jobs: jobs}, s)
		if err != nil {
			t.Fatal(err)
		}
		if s.picks == 0 || res.Stream.RecycledRuns == 0 {
			t.Fatalf("hold=%v: RunStream made %d Picks and recycled %d records; fixture too small", hold, s.picks, res.Stream.RecycledRuns)
		}

		// greedy and its limited twin share a prefix; the chaos variants
		// fork off at once.
		var scheds []Scheduler
		for _, inner := range []Scheduler{
			greedy{}, &pickWithLimit{limit: 2}, boundedPolicy{},
			&chaosScheduler{rng: rand.New(rand.NewSource(1))}, &chaosScheduler{rng: rand.New(rand.NewSource(2))},
		} {
			scheds = append(scheds, &bookkept{Scheduler: inner, t: t})
		}
		if _, err := RunGroup(cfg, jobs, scheds); err != nil {
			t.Fatal(err)
		}
		for i, s := range scheds {
			if s.(*bookkept).picks == 0 {
				t.Fatalf("hold=%v: RunGroup variant %d made no Pick", hold, i)
			}
		}
	}
}
