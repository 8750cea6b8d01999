// Package sim is a discrete-event simulator of a Spark-style data
// processing cluster, modeled on the simulator of Mao et al. [48] that the
// paper extends (§5.2). It captures the first-order effects that matter to
// carbon-aware scheduling: per-stage task waves, per-stage parallelism
// limits, executor hand-off delays between jobs, per-job executor caps
// (the prototype's Kubernetes behaviour, Appendix A.1.2), and scheduling
// events on job arrivals, task completions, executor idling, and every
// carbon-intensity boundary (Alg. 1 line 2).
//
// Carbon accounting is ex post facto as in §5.2: busy executor-seconds are
// accumulated per carbon interval while the simulation runs and converted
// to gCO2eq afterwards, so accounting never perturbs scheduling.
//
// The scheduling core is incremental (see DESIGN.md): the cluster
// maintains a per-job runnable-stage index, bitmap sets of free and
// reserved-idle executors, per-job held-executor lists, and counts of
// jobs with runnable work, all updated only at the transitions that can
// change them — job arrival, task dispatch, stage finish, hold expiry,
// and job completion. The Runnable/ActiveJobs/OutstandingWork accessors
// are epoch-cached views over that state, and each job's RemainingWork
// is memoized until its next task completion, so the repeated Pick calls
// within one scheduling event cost no allocations and no full-state
// rescans.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
)

// Config parameterizes one simulation run.
type Config struct {
	// NumExecutors is K, the number of machines.
	NumExecutors int
	// Trace is the carbon-intensity signal. Required.
	Trace *carbon.Trace
	// ForecastHorizon is the lookahead window, in experiment seconds,
	// over which the schedulers' L and U bounds are computed. The paper
	// uses 48 grid-hours; at the 1-min = 1-h scaling that is 48 samples.
	// Zero selects 48 trace intervals.
	ForecastHorizon float64
	// MoveDelay is the executor hand-off latency in seconds incurred
	// when an executor switches to a different job (Spark executor
	// movement, §5.2). Within-job stage switches are free.
	MoveDelay float64
	// PerJobCap bounds the executors simultaneously assigned to one job;
	// 0 means unlimited. The paper's prototype uses 25 (§6.3).
	PerJobCap int
	// HoldExecutors models executor retention (Appendix A.1.2): an
	// executor granted to a job stays with that job — consuming
	// resources and emitting carbon — while it has no task to run, until
	// either the job completes or the executor has idled for
	// IdleTimeout (Spark's executorIdleTimeout). Retained executors
	// serve their job's newly runnable stages directly (the
	// in-application FIFO). This is the mechanism behind standalone
	// FIFO's blocking and its worse carbon footprint relative to
	// schedulers that actively manage executor placement (Fig. 15).
	HoldExecutors bool
	// IdleTimeout is the retention window in seconds for HoldExecutors
	// mode; 0 selects Spark's default of 60 s, negative values hold for
	// the job's whole lifetime (standalone mode without dynamic
	// allocation).
	IdleTimeout float64
	// Seed records the run's seed for callers that derive their
	// schedulers' seeds from the configuration. Nothing in the engine
	// reads it.
	Seed int64
	// MaxEvents bounds the event loop as a hang guard; 0 selects a
	// generous default.
	MaxEvents int
	// PerJobResults makes RunStream keep Result.JCTs, whose memory grows
	// with the number of jobs. Run and RunGroup always keep it.
	PerJobResults bool
	// TrackJobUsage additionally records each job's busy
	// executor-seconds per carbon interval (Result.JobUsage) — the
	// per-job shading of the paper's occupancy plots (Fig. 6).
	TrackJobUsage bool
	// Observer, when non-nil, is invoked after the scheduling pass of
	// each admission and each event, with the cluster in a consistent
	// scheduler-visible state — the capture point for Cluster.Snapshot
	// exports. The callback must not mutate cluster state and must not
	// retain the view slices across calls; Snapshot itself copies what it
	// needs. Only Run takes one: RunGroup and RunStream reject it.
	Observer func(c *Cluster)
}

// StageRun is the runtime state of one stage of one job.
type StageRun struct {
	Stage *dag.Stage
	// Dispatched and Completed count tasks handed to executors and
	// finished, respectively.
	Dispatched, Completed int
	// Running is the number of executors currently bound to the stage.
	Running int
	// Limit is the parallelism limit in force, set each time a
	// scheduler (re)selects the stage. 0 means not yet scheduled.
	Limit int
	// ParentsLeft counts incomplete parent stages; the stage is
	// runnable when it reaches 0.
	ParentsLeft int
}

// Runnable reports whether the stage can accept a new executor under its
// current limit.
func (s *StageRun) Runnable() bool {
	return s.ParentsLeft == 0 && s.Dispatched < s.Stage.NumTasks
}

// RemainingTasks returns the number of undispatched tasks.
func (s *StageRun) RemainingTasks() int { return s.Stage.NumTasks - s.Dispatched }

// JobRun is the runtime state of one job.
type JobRun struct {
	Job    *dag.Job
	Stages []*StageRun
	// StagesDone counts completed stages.
	StagesDone int
	// Executors counts executors currently bound to the job.
	Executors int
	// Arrived reports whether the job has been admitted.
	Arrived bool
	// index is the job's position in the batch (Run, RunGroup) or in
	// admission order (RunStream). It indexes per-job results and usage.
	index int
	// Done reports completion; CompletedAt is its timestamp.
	Done        bool
	CompletedAt float64

	// runnable is the incrementally maintained index of this job's
	// runnable stages (all parents complete, undispatched tasks left),
	// sorted by stage ID. Stages enter on arrival or when their last
	// parent finishes, and leave when their last task is dispatched.
	runnable []*StageRun
	// held lists the executors this job is retaining between tasks
	// (HoldExecutors mode), so hold-mode dispatch and job-completion
	// release never scan the whole cluster.
	held []*executor
	// arena backs Stages for pooled runs (RunStream): stage records live
	// contiguously and are reused across recycles. Nil for a batch,
	// whose stage records are allocated individually.
	arena []StageRun
	// gen distinguishes successive occupants of a recycled record:
	// the pool increments it on every acquire, so pointer-keyed caches
	// (sched's critical-path memo) can detect that a *JobRun they
	// remember now runs a different job. Always 0 for a batch.
	gen int
	// ready mirrors len(runnable) > 0, and holdReady mirrors ready &&
	// len(held) > 0 — the job can serve a held executor right now. The
	// cluster counts both (updateReady): the scheduling loop stops at
	// once when no job has a runnable stage, and the hold-mode dispatch
	// pass is skipped entirely when no job has both a parked executor
	// and runnable work (the common case: after every dispatch pass that
	// count returns to zero, and it only rises again at a stage finish,
	// hold, or arrival transition).
	ready, holdReady bool
	// remaining memoizes RemainingWork while remainingOK is set.
	// completeTask, the only write to a stage's Completed once the run is
	// built, clears remainingOK; a record built by newCluster,
	// runPool.acquire or Snapshot.Restore starts with it clear.
	remaining   float64
	remainingOK bool
}

// Generation returns the recycle count of this runtime record (always 0
// outside RunStream). A (pointer, generation) pair is a
// stable identity for caches that outlive one job's run: when the
// generation moves, the record was retired and now carries another job.
func (j *JobRun) Generation() int { return j.gen }

// RemainingWork returns the job's undone work in executor-seconds,
// counting both undispatched and in-flight tasks. The sum is kept until
// the job's next task completion, so repeated calls cost O(1).
//
//pcaps:hotpath
func (j *JobRun) RemainingWork() float64 {
	if !j.remainingOK {
		var w float64
		for _, s := range j.Stages {
			w += float64(s.Stage.NumTasks-s.Completed) * s.Stage.TaskDuration
		}
		j.remaining, j.remainingOK = w, true
	}
	return j.remaining
}

// StageRef identifies a runnable stage to a scheduler.
type StageRef struct {
	Job   *JobRun
	Stage *StageRun
}

// Decision is a scheduler's answer to one Pick call.
type Decision struct {
	// Ref is the stage to receive executors. Meaningless when Defer.
	Ref StageRef
	// Limit is the parallelism limit to apply to the stage (maximum
	// concurrent executors). Values < 1 mean "no limit" (the standalone
	// FIFO over-assignment behaviour of Appendix A.1.2).
	Limit int
	// MaxNew bounds how many executors this single decision may bind;
	// values < 1 mean unbounded. CAP uses it to enforce its quota
	// without preempting running work.
	MaxNew int
	// Defer stops all further assignment until the next scheduling
	// event, idling the remaining free executors (Alg. 1 line 10).
	Defer bool
}

// DeferDecision is the Decision that idles the cluster until the next
// scheduling event.
var DeferDecision = Decision{Defer: true}

// Scheduler chooses stages for idle executors. Pick is invoked repeatedly
// during a scheduling event while idle executors and runnable stages
// remain; returning Defer ends the event.
type Scheduler interface {
	Name() string
	Pick(c *Cluster) Decision
}

// executor is one machine.
type executor struct {
	id   int
	busy bool
	// job / stage the executor is bound to; nil when idle.
	job   *JobRun
	stage *StageRun
	// reserved is the job holding this executor between tasks in
	// HoldExecutors mode; nil otherwise. holdExpire is the time the
	// current reservation lapses.
	reserved   *JobRun
	holdExpire float64
	// lastJob remembers the previous binding's job index for move-delay
	// accounting (-1 before the first binding). Indices rather than
	// *JobRun pointers: the streaming engine recycles JobRun records
	// through a pool, so a pointer could alias a later job and silently
	// skip its hand-off delay, while indices are never reused.
	lastJob int
	// heldPos is this executor's index in reserved.held, for O(1)
	// removal. Meaningless when reserved is nil.
	heldPos int
}

// Cluster is the simulation state exposed to schedulers.
type Cluster struct {
	cfg   Config
	clock float64
	execs []*executor
	// The future-event list has two sources (DESIGN.md §2): the heap
	// holds task completions and the carbon boundary, and the expiry
	// queue, expiries[expHead:], holds hold expiries, created already in
	// (at, seq) order (pushExpiry). nextEvent merges them.
	events   eventHeap
	expiries []event
	expHead  int
	// busyCount counts executors running a task; activeCount adds the
	// executors a job merely holds (HoldExecutors mode). Carbon and
	// quota decisions see activeCount — held executors burn power.
	busyCount   int
	activeCount int

	// free holds the IDs of executors in the shared idle pool, popped in
	// ascending order so assignment matches the historical full scan.
	free idSet
	// reservedIdle holds the IDs of executors that are held by a job and
	// awaiting work (HoldExecutors mode). An executor leaves it when it is
	// dispatched, its hold expires, or its job completes.
	reservedIdle idSet
	// runnableJobs counts jobs with ready set: the scheduling loop's
	// guard. holdReadyCount counts jobs with holdReady set;
	// dispatchReserved is a guaranteed no-op while it is zero.
	runnableJobs, holdReadyCount int
	// active lists arrived, incomplete jobs in batch order — the
	// incremental form of the historical scan over all jobs.
	active []*JobRun
	// doneCount counts completed jobs, replacing the historical per-event
	// scan over all jobs in unfinished().
	doneCount int

	// Jobs enter through admission (admit). pending holds a batch's
	// (Run, RunGroup) jobs not yet admitted, by arrival with ties in
	// batch order; stream is RunStream's source, pool and reducers, nil
	// for a batch. admitted counts admissions; processed counts
	// admissions and events (Result.Events). finishStage parks a
	// streamed job that completes in doneScratch, for retirement after
	// the scheduling pass.
	pending     []*JobRun
	stream      *streamState
	admitted    int
	processed   int
	doneScratch []*JobRun

	// epoch counts state mutations that can change the scheduler-facing
	// views; the cached views below are rebuilt (into reused scratch)
	// only when their epoch falls behind. Within one scheduling event a
	// scheduler may call Runnable/ActiveJobs/OutstandingWork any number
	// of times for free.
	epoch            int
	runnableEpoch    int
	runnableView     []StageRef
	outstandingEpoch int
	outstanding      float64

	// usage[i] is busy executor-seconds accumulated during carbon
	// interval i.
	usage []float64
	// deferrals and deferredWork record PCAPS-style filter activity,
	// reported by wrapping schedulers through NoteDeferral.
	deferrals    int
	deferredWork float64
	// jobUsage mirrors usage per job when Config.TrackJobUsage is set.
	jobUsage [][]float64
	// totalWork sums the jobs' work in executor-seconds. Each completed
	// job folds into ect and sumJCT, and, when perJob is set, into jcts
	// at its index.
	totalWork   float64
	ect, sumJCT float64
	perJob      bool
	jcts        []float64

	// boundsClock/boundsLo/boundsHi cache CarbonBounds for the current
	// clock value: CAP-style wrappers query the bounds on every Pick,
	// several times per scheduling event, and the answer only changes
	// when the clock moves. boundsClock is NaN when invalid. Restore
	// fills the cache with the snapshot's captured bounds; a restored
	// cluster's clock never moves, so they are its answer.
	boundsClock        float64
	boundsLo, boundsHi float64
}

// Now returns the simulation clock in experiment seconds.
func (c *Cluster) Now() float64 { return c.clock }

// Carbon returns the current carbon intensity.
func (c *Cluster) Carbon() float64 { return c.cfg.Trace.At(c.clock) }

// CarbonBounds returns the forecast bounds (L, U): the trace's extremes
// over the configured lookahead window starting now, which the paper
// treats as exact (§6.1). A cluster restored from a snapshot answers
// with the bounds the snapshot captured.
func (c *Cluster) CarbonBounds() (lo, hi float64) {
	if c.boundsClock != c.clock {
		c.boundsLo, c.boundsHi = c.cfg.Trace.Bounds(c.clock, c.cfg.ForecastHorizon)
		c.boundsClock = c.clock
	}
	return c.boundsLo, c.boundsHi
}

// GreenFraction returns the local renewable (solar) capacity fraction now
// — the signal GreenHadoop schedules against.
func (c *Cluster) GreenFraction() float64 { return c.cfg.Trace.SolarFraction(c.clock) }

// GreenFractionAt returns the green fraction at an arbitrary future time
// (GreenHadoop plans over a window).
func (c *Cluster) GreenFractionAt(sec float64) float64 { return c.cfg.Trace.SolarFraction(sec) }

// CarbonInterval returns the trace sampling interval in seconds.
func (c *Cluster) CarbonInterval() float64 { return c.cfg.Trace.Interval }

// K returns the cluster size.
func (c *Cluster) K() int { return c.cfg.NumExecutors }

// PerJobCap returns the configured per-job executor cap (0 = uncapped),
// so policies can avoid proposing stages the assignment loop must reject.
func (c *Cluster) PerJobCap() int { return c.cfg.PerJobCap }

// BusyCount returns the number of executors consuming cluster resources:
// those running a task plus those held by a job between tasks in
// HoldExecutors mode. This is the E(t) of the paper's carbon model and the
// count CAP's quota gates on.
func (c *Cluster) BusyCount() int { return c.activeCount }

// RunningCount returns only the executors actually executing a task.
func (c *Cluster) RunningCount() int { return c.busyCount }

// IdleCount returns the number of executors in the shared free pool.
func (c *Cluster) IdleCount() int { return len(c.execs) - c.activeCount }

// invalidate marks every cached view stale. It must be called (at least
// once) on any state change that can alter what schedulers observe:
// arrivals, task dispatch, task completion, executor release, hold
// expiry, and job completion.
func (c *Cluster) invalidate() { c.epoch++ }

// ActiveJobs returns arrived, incomplete jobs in arrival order.
//
// The returned slice is a live view owned by the cluster: it is valid
// until the next state change (in practice, until the scheduler's Pick
// returns) and must not be retained or modified.
//
//pcaps:hotpath
func (c *Cluster) ActiveJobs() []*JobRun { return c.active }

// Runnable returns references to every stage that can accept work:
// arrived job, all parents complete, undispatched tasks remaining, and
// per-job cap not exhausted. Order is deterministic (job arrival order,
// then stage ID).
//
// The returned slice is an epoch-cached view owned by the cluster:
// repeated calls within one scheduling event return the same backing
// array without rebuilding. It is valid until the next state change and
// must not be retained or modified.
//
//pcaps:hotpath
func (c *Cluster) Runnable() []StageRef {
	if c.runnableEpoch != c.epoch {
		c.runnableView = c.runnableView[:0]
		for _, j := range c.active {
			if c.cfg.PerJobCap > 0 && j.Executors >= c.cfg.PerJobCap {
				continue
			}
			for _, s := range j.runnable {
				c.runnableView = append(c.runnableView, StageRef{Job: j, Stage: s})
			}
		}
		c.runnableEpoch = c.epoch
	}
	return c.runnableView
}

// OutstandingWork returns total undone work across active jobs, in
// executor-seconds. The sum is epoch-cached alongside the other views.
//
//pcaps:hotpath
func (c *Cluster) OutstandingWork() float64 {
	if c.outstandingEpoch != c.epoch {
		var w float64
		for _, j := range c.active {
			w += j.RemainingWork()
		}
		c.outstanding = w
		c.outstandingEpoch = c.epoch
	}
	return c.outstanding
}

// NoteDeferral lets carbon-aware wrapper schedulers record a filtered
// (deferred) stage so that the run report can estimate D(γ,c).
func (c *Cluster) NoteDeferral(ref StageRef) {
	c.deferrals++
	if ref.Stage != nil {
		c.deferredWork += float64(ref.Stage.RemainingTasks()) * ref.Stage.Stage.TaskDuration
	}
}

// errNoProgress guards against schedulers that return saturated stages.
var errNoProgress = errors.New("sim: scheduler made no progress")

// Result summarizes one run.
type Result struct {
	Scheduler string
	// ECT is the end-to-end completion time: the time the last job
	// finishes (experiments start at 0).
	ECT float64
	// AvgJCT is the mean job completion time (completion − arrival).
	AvgJCT float64
	// JCTs holds each job's completion time, in batch order (Run,
	// RunGroup) or admission order (RunStream). Nil for RunStream unless
	// Config.PerJobResults is set.
	JCTs []float64
	// CarbonGrams is the total carbon footprint in gCO2eq assuming 1 kW
	// per busy executor.
	CarbonGrams float64
	// Usage is busy executor-seconds per carbon interval (the timeline
	// consumed by core.DecomposeSavings).
	Usage []float64
	// JobUsage, when Config.TrackJobUsage is set, holds each job's busy
	// executor-seconds per carbon interval (rows index jobs as given).
	JobUsage [][]float64
	// Deferrals and DeferredWork report carbon-filter activity.
	Deferrals    int
	DeferredWork float64
	// Stream carries the streaming reducers' summary; non-nil only for
	// RunStream results.
	Stream *StreamStats
	// TotalWork is the jobs' total work in executor-seconds.
	TotalWork float64
	// Events is the number of processed admissions and simulation events.
	Events int
}

// Run simulates the batch of jobs under the scheduler until every job
// completes, returning the run summary. The jobs are only read, so one
// batch may feed any number of runs. The batch need not be sorted by
// arrival.
func Run(cfg Config, jobs []*dag.Job, s Scheduler) (*Result, error) {
	c, err := newCluster(cfg, jobs)
	if err != nil {
		return nil, err
	}
	if err := c.run(s); err != nil {
		return nil, err
	}
	return c.result(s.Name())
}

// newCluster validates the configuration and builds the initial cluster
// state: executors in the free pool, the first carbon-boundary event,
// and the batch's jobs, validated and queued for admission by arrival
// with ties in batch order. RunStream passes no jobs.
func newCluster(cfg Config, jobs []*dag.Job) (*Cluster, error) {
	if cfg.Trace == nil {
		return nil, errors.New("sim: config requires a carbon trace")
	}
	if cfg.NumExecutors < 1 {
		return nil, fmt.Errorf("sim: need at least one executor, got %d", cfg.NumExecutors)
	}
	if cfg.ForecastHorizon <= 0 {
		cfg.ForecastHorizon = 48 * cfg.Trace.Interval
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 20_000_000
	}

	c := &Cluster{cfg: cfg, epoch: 1, perJob: true}
	c.boundsClock = math.NaN() // cache starts invalid (clock starts at 0)
	c.execs = make([]*executor, cfg.NumExecutors)
	c.free, c.reservedIdle = newIDSet(cfg.NumExecutors), newIDSet(cfg.NumExecutors)
	for i := 0; i < cfg.NumExecutors; i++ {
		c.execs[i] = &executor{id: i, lastJob: -1}
		c.free.add(i)
	}
	// Preallocate the usage timeline to the trace length so the per-event
	// accounting in advance never grows it.
	c.usage = make([]float64, 0, len(cfg.Trace.Values))
	// Seed carbon-boundary events lazily: push the first boundary; each
	// handler pushes the next. This keeps the heap small on long traces.
	if next := cfg.Trace.NextChange(0); !math.IsInf(next, 1) {
		c.push(event{at: next, kind: evCarbon})
	}
	if cfg.TrackJobUsage {
		c.jobUsage = make([][]float64, len(jobs))
	}
	c.pending = make([]*JobRun, len(jobs))
	for idx, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("sim: job %d: %w", j.ID, err)
		}
		run := &JobRun{Job: j, Stages: make([]*StageRun, len(j.Stages)), index: idx}
		for i, st := range j.Stages {
			run.Stages[i] = &StageRun{Stage: st, ParentsLeft: len(st.Parents)}
		}
		c.pending[idx] = run
		c.totalWork += j.TotalWork()
	}
	slices.SortStableFunc(c.pending, func(a, b *JobRun) int { return cmp.Compare(a.Job.Arrival, b.Job.Arrival) })
	return c, nil
}

// run drives the one event loop of Run, RunStream and RunGroup until
// every job has completed or nothing is left to happen. Each step is an
// admission when the next job arrives no later than the earliest pending
// event (nextEvent) — at a tie the job comes first — and otherwise that
// event; a scheduling pass follows every step.
func (c *Cluster) run(s Scheduler) error {
	for c.unfinished() || c.busyCount > 0 {
		next := c.nextJob()
		first, expiry := c.nextEvent()
		admit := next != nil && (first == nil || next.Arrival <= first.at)
		if !admit && first == nil {
			return nil
		}
		if c.processed++; c.processed > c.cfg.MaxEvents {
			return fmt.Errorf("sim: exceeded %d events (scheduler livelock?)", c.cfg.MaxEvents)
		}
		if admit {
			if err := c.admit(); err != nil {
				return err
			}
		} else {
			var ev event
			if expiry {
				ev = c.popExpiry()
			} else {
				ev = c.pop()
			}
			c.advance(ev.at)
			c.handleEvent(ev)
		}
		if err := c.pass(s); err != nil {
			return err
		}
	}
	return nil
}

// pass runs the scheduling pass that follows a step, shows the result to
// the Observer, and retires the streamed jobs the step completed.
func (c *Cluster) pass(s Scheduler) error {
	if err := c.schedule(s); err != nil {
		return err
	}
	if c.cfg.Observer != nil {
		c.cfg.Observer(c)
	}
	c.retire()
	return nil
}

// nextJob returns the job due for admission next, or nil when none is
// left.
func (c *Cluster) nextJob() *dag.Job {
	if c.stream != nil {
		return c.stream.next
	}
	if len(c.pending) > 0 {
		return c.pending[0].Job
	}
	return nil
}

// admit activates the next job at its arrival time. A batch job was
// validated by newCluster; a streamed job is checked here and takes a
// pooled JobRun.
func (c *Cluster) admit() error {
	var jr *JobRun
	if st := c.stream; st != nil {
		j := st.next
		if j.Arrival < st.lastArrival {
			return fmt.Errorf("sim: job %d arrives at %v, before the prior admission at %v (sources must yield non-decreasing arrivals)", j.ID, j.Arrival, st.lastArrival)
		}
		st.lastArrival = j.Arrival
		if err := j.Validate(); err != nil {
			return fmt.Errorf("sim: job %d: %w", j.ID, err)
		}
		c.totalWork += j.TotalWork()
		jr = st.pool.acquire(j, c.admitted)
		st.backlog.Arrive(j.Arrival)
		if err := st.fetch(); err != nil {
			return err
		}
	} else {
		jr, c.pending = c.pending[0], c.pending[1:]
	}
	c.admitted++
	c.advance(jr.Job.Arrival)
	c.arrive(jr)
	return nil
}

// handleEvent applies one popped event's state transition (the clock must
// already have advanced to ev.at).
func (c *Cluster) handleEvent(ev event) {
	switch ev.kind {
	case evTaskDone:
		c.completeTask(c.execs[ev.exec])
	case evCarbon:
		if next := c.cfg.Trace.NextChange(c.clock); !math.IsInf(next, 1) && c.unfinished() {
			c.push(event{at: next, kind: evCarbon})
		}
	case evHoldExpire:
		c.expireHold(c.execs[ev.exec])
	}
}

// record folds a job that has just completed into the run's outputs.
//
//pcaps:hotpath
func (c *Cluster) record(j *JobRun) {
	jct := j.CompletedAt - j.Job.Arrival
	c.sumJCT += jct
	c.ect = max(c.ect, j.CompletedAt)
	if c.perJob {
		for len(c.jcts) <= j.index {
			//hot:alloc amortized growth of the per-job JCTs, which RunStream keeps only on request
			c.jcts = append(c.jcts, 0)
		}
		c.jcts[j.index] = jct
	}
	if st := c.stream; st != nil {
		st.p50.Add(jct)
		st.p95.Add(jct)
		st.p99.Add(jct)
		st.backlog.Complete(j.CompletedAt)
	}
}

// result assembles the run summary once the loop has ended.
func (c *Cluster) result(name string) (*Result, error) {
	if c.admitted == 0 {
		return nil, errors.New("sim: no jobs")
	}
	if c.doneCount < c.admitted {
		return nil, fmt.Errorf("sim: %d of %d admitted jobs did not complete", c.admitted-c.doneCount, c.admitted)
	}
	res := &Result{
		Scheduler:    name,
		ECT:          c.ect,
		Usage:        c.usage,
		JobUsage:     c.jobUsage,
		Deferrals:    c.deferrals,
		DeferredWork: c.deferredWork,
		TotalWork:    c.totalWork,
		Events:       c.processed,
	}
	sum := c.sumJCT
	if c.perJob {
		// Sum in index order, so the runs that keep per-job results agree
		// bit for bit whatever order their jobs completed in.
		res.JCTs, sum = c.jcts, 0
		for _, jct := range c.jcts {
			sum += jct
		}
	}
	res.AvgJCT = sum / float64(c.admitted)
	for i, u := range c.usage {
		res.CarbonGrams += u * c.cfg.Trace.Values[min(i, len(c.cfg.Trace.Values)-1)] / 3600
	}
	if st := c.stream; st != nil {
		res.Stream = &StreamStats{
			Admitted:     c.admitted,
			PeakInFlight: st.backlog.Peak(),
			MeanInFlight: st.backlog.Mean(),
			P50JCT:       st.p50.Value(),
			P95JCT:       st.p95.Value(),
			P99JCT:       st.p99.Value(),
			RecycledRuns: st.pool.recycled,
		}
	}
	return res, nil
}

// unfinished reports whether a job is still to be admitted or to
// complete. doneCount is maintained at the single place a job completes
// (finishStage), replacing the historical per-event scan over all jobs.
func (c *Cluster) unfinished() bool { return c.nextJob() != nil || c.doneCount < c.admitted }

// updateReady recomputes the job's ready and holdReady bits and keeps
// the cluster-wide counts in sync. It must be called after any mutation
// of j.held or j.runnable (and is cheap enough to call unconditionally).
func (c *Cluster) updateReady(j *JobRun) {
	setCounted(&j.ready, len(j.runnable) > 0, &c.runnableJobs)
	setCounted(&j.holdReady, j.ready && len(j.held) > 0, &c.holdReadyCount)
}

// setCounted sets *flag to v, keeping *count equal to the number of set
// flags.
func setCounted(flag *bool, v bool, count *int) {
	if *flag != v {
		*flag = v
		if v {
			*count++
		} else {
			*count--
		}
	}
}

// arrive activates a job: it joins the active list (kept in batch order)
// and its root stages enter the runnable index.
func (c *Cluster) arrive(j *JobRun) {
	j.Arrived = true
	i := len(c.active)
	for i > 0 && c.active[i-1].index > j.index {
		i--
	}
	c.active = append(c.active, nil)
	copy(c.active[i+1:], c.active[i:])
	c.active[i] = j
	if cap(j.runnable) < len(j.Stages) {
		j.runnable = make([]*StageRun, 0, len(j.Stages))
	} else {
		j.runnable = j.runnable[:0] // pooled run: reuse the retired capacity
	}
	for _, s := range j.Stages {
		if s.ParentsLeft == 0 {
			j.runnable = append(j.runnable, s)
		}
	}
	c.updateReady(j)
	c.invalidate()
}

// noteDispatch records one task hand-off on the stage; a fully dispatched
// stage leaves the runnable index.
func (c *Cluster) noteDispatch(j *JobRun, st *StageRun) {
	st.Dispatched++
	if st.Dispatched >= st.Stage.NumTasks {
		for i, s := range j.runnable {
			if s == st {
				j.runnable = append(j.runnable[:i], j.runnable[i+1:]...)
				break
			}
		}
		c.updateReady(j)
	}
	c.invalidate()
}

// insertRunnable adds a newly ready stage to the job's runnable index,
// keeping stage-ID order (the in-application FIFO order).
func (c *Cluster) insertRunnable(j *JobRun, st *StageRun) {
	i := len(j.runnable)
	for i > 0 && j.runnable[i-1].Stage.ID > st.Stage.ID {
		i--
	}
	j.runnable = append(j.runnable, nil)
	copy(j.runnable[i+1:], j.runnable[i:])
	j.runnable[i] = st
	c.updateReady(j)
}

// advance moves the clock to t, accumulating busy executor-seconds into
// the per-carbon-interval usage timeline, the one carbon account. With
// TrackJobUsage it also fills each job's usage row: a job is charged for
// the executors it counts in Executors — those running its tasks and
// those it holds — so the rows walk the active jobs, never the K
// executors.
func (c *Cluster) advance(t float64) {
	if t <= c.clock {
		c.clock = math.Max(c.clock, t)
		return
	}
	tr := c.cfg.Trace
	cur := c.clock
	for cur < t {
		next := tr.NextChange(cur)
		if next > t {
			next = t
		}
		span := next - cur
		if c.activeCount > 0 && span > 0 {
			idx := tr.Index(cur)
			for len(c.usage) <= idx {
				c.usage = append(c.usage, 0)
			}
			c.usage[idx] += float64(c.activeCount) * span
			if c.jobUsage != nil {
				for _, j := range c.active {
					if j.Executors == 0 {
						continue
					}
					row := c.jobUsage[j.index]
					if row == nil {
						row = make([]float64, 0, len(tr.Values))
					}
					for len(row) <= idx {
						row = append(row, 0)
					}
					row[idx] += span * float64(j.Executors)
					c.jobUsage[j.index] = row
				}
			}
		}
		if math.IsInf(next, 1) {
			break
		}
		cur = next
	}
	c.clock = t
}

// schedule runs the assignment loop for the current event: first let
// job-held executors serve their own jobs (HoldExecutors mode), then
// repeatedly ask the scheduler for a stage and bind idle executors to it,
// until the scheduler defers, no executors are idle, or nothing is
// runnable.
func (c *Cluster) schedule(s Scheduler) error {
	// holdReadyCount > 0 iff some job has both a parked executor and
	// runnable work; otherwise the drain pass is a guaranteed no-op (it
	// would pop and re-push every waiting ID), so skip it. After the
	// pre-pass no job both holds an executor and has a runnable stage,
	// and binds cannot create such a job: they take free executors and
	// only shrink runnable indexes. So the count stays zero for the rest
	// of the pass, and a RunGroup fork taken at any Pick below can finish
	// the pass through schedule (fork.go).
	if c.cfg.HoldExecutors && c.holdReadyCount > 0 {
		c.dispatchReserved()
	}
	// Most events leave no job with a runnable stage, and runnableJobs
	// says so without building the view. The exact check stays behind it
	// for the per-job cap, which filters capped jobs out of the view; the
	// view it builds is the one Pick reads.
	for c.IdleCount() > 0 && c.runnableJobs > 0 && len(c.Runnable()) > 0 {
		d := s.Pick(c)
		if d.Defer {
			return nil
		}
		if d.Ref.Stage == nil || d.Ref.Job == nil {
			return fmt.Errorf("%w: %s returned empty decision", errNoProgress, s.Name())
		}
		if n := c.assign(d); n == 0 {
			// The chosen stage could not accept an executor (saturated
			// limit or per-job cap). A correct scheduler avoids this;
			// treat it as a defer rather than livelocking.
			return nil
		}
	}
	return nil
}

// bindRule is the engine's one rule for what a decision on a stage does,
// shared by assign, RunGroup's effect comparison and Place. It returns
// the parallelism limit the decision puts in force (values below 1 or
// above the stage's task count mean the task count) and how many free
// executors it binds: the smallest of the free pool, MaxNew, the
// headroom under the limit, the undispatched tasks, and the per-job cap's
// headroom. ok is false when the job is not admitted or is done, or the
// stage is not runnable; the decision then changes nothing.
func (c *Cluster) bindRule(d Decision) (limit, n int, ok bool) {
	j, st := d.Ref.Job, d.Ref.Stage
	limit = d.Limit
	if limit < 1 || limit > st.Stage.NumTasks {
		limit = st.Stage.NumTasks
	}
	if !j.Arrived || j.Done || !st.Runnable() {
		return limit, 0, false
	}
	n = min(c.free.len(), limit-st.Running, st.RemainingTasks())
	if d.MaxNew > 0 {
		n = min(n, d.MaxNew)
	}
	if c.cfg.PerJobCap > 0 {
		n = min(n, c.cfg.PerJobCap-j.Executors)
	}
	return limit, max(n, 0), true
}

// assign applies the decision: it puts the stage's limit in force and
// binds bindRule's count of idle executors to it, off the free pool in
// ascending-ID order (matching the historical whole-cluster scan). It
// returns the number bound.
func (c *Cluster) assign(d Decision) int {
	limit, n, ok := c.bindRule(d)
	if !ok {
		return 0
	}
	d.Ref.Stage.Limit = limit
	for range n {
		c.bind(c.execs[c.free.popMin()], d.Ref.Job, d.Ref.Stage)
	}
	return n
}

// dispatchReserved lets every job-held executor pull a task from its
// job's runnable stages (in-application FIFO: lowest stage ID first).
// Executors are visited in ascending-ID order — the order of the
// historical cluster scan — and those whose job has nothing runnable
// stay waiting. The walk stops once no job can serve a held executor.
func (c *Cluster) dispatchReserved() {
	ri := &c.reservedIdle
	for wi := ri.lo; wi < len(ri.words) && c.holdReadyCount > 0; wi++ {
		for w := ri.words[wi]; w != 0; w &= w - 1 {
			e := c.execs[wi<<6|bits.TrailingZeros64(w)]
			j := e.reserved
			if len(j.runnable) == 0 {
				continue
			}
			// The stage's limit is left as it is. Until a scheduler puts
			// one in force, completeTask returns the executor to the held
			// pool after every task, with a fresh expiry event (DESIGN.md
			// §2.1).
			st := j.runnable[0]
			c.releaseHeld(e)
			e.busy = true
			e.job = j
			e.stage = st
			c.busyCount++
			st.Running++
			c.noteDispatch(j, st)
			c.push(event{at: c.clock + st.Stage.TaskDuration, kind: evTaskDone, exec: int32(e.id)})
		}
	}
}

// bind starts a free-pool executor on the stage's next task.
func (c *Cluster) bind(e *executor, j *JobRun, st *StageRun) {
	delay := 0.0
	if e.lastJob != j.index {
		delay = c.cfg.MoveDelay
	}
	e.busy = true
	e.job = j
	e.stage = st
	c.busyCount++
	c.activeCount++
	j.Executors++
	st.Running++
	c.noteDispatch(j, st)
	c.push(event{at: c.clock + delay + st.Stage.TaskDuration, kind: evTaskDone, exec: int32(e.id)})
}

// completeTask handles a task-done event: the executor either pulls the
// next task of its stage (when the limit allows) or goes idle; stage and
// job completion propagate to children.
func (c *Cluster) completeTask(e *executor) {
	st, j := e.stage, e.job
	st.Completed++
	j.remainingOK = false
	c.invalidate()
	if st.Completed == st.Stage.NumTasks {
		c.finishStage(j, st)
	}
	// Continue on the same stage when tasks remain and the limit holds.
	if st.RemainingTasks() > 0 && st.Running <= st.Limit {
		c.noteDispatch(j, st)
		c.push(event{at: c.clock + st.Stage.TaskDuration, kind: evTaskDone, exec: int32(e.id)})
		return
	}
	// Release the executor: back to the job's held pool in standalone
	// mode (unless the job just finished), otherwise to the free pool.
	e.busy = false
	e.lastJob = j.index
	e.job = nil
	e.stage = nil
	st.Running--
	c.busyCount--
	if c.cfg.HoldExecutors && !j.Done {
		c.holdExecutor(e, j)
		return // still active: the job holds the executor
	}
	j.Executors--
	c.activeCount--
	c.free.add(e.id)
}

// holdExecutor parks a just-released executor in its job's held pool and
// appends its idle-timeout expiry to the expiry queue (hold-for-lifetime
// when IdleTimeout is negative).
func (c *Cluster) holdExecutor(e *executor, j *JobRun) {
	e.reserved = j
	e.heldPos = len(j.held)
	j.held = append(j.held, e)
	c.reservedIdle.add(e.id)
	c.updateReady(j)
	if c.cfg.IdleTimeout >= 0 {
		timeout := c.cfg.IdleTimeout
		if timeout == 0 {
			timeout = 60 // Spark's executorIdleTimeout default
		}
		e.holdExpire = c.clock + timeout
		c.pushExpiry(event{at: e.holdExpire, kind: evHoldExpire, exec: int32(e.id)})
	}
}

// releaseHeld ends the executor's reservation: it leaves its job's held
// list and the reserved-idle set.
func (c *Cluster) releaseHeld(e *executor) {
	j := e.reserved
	held := j.held
	last := len(held) - 1
	moved := held[last]
	held[e.heldPos] = moved
	moved.heldPos = e.heldPos
	held[last] = nil
	j.held = held[:last]
	e.reserved = nil
	c.reservedIdle.remove(e.id)
	c.updateReady(j)
}

// expireHold releases a still-reserved executor whose idle window lapsed.
// Stale expiry events (the executor was re-dispatched and re-reserved
// since) are detected by comparing against the current holdExpire.
func (c *Cluster) expireHold(e *executor) {
	if e.reserved == nil || e.busy || c.clock < e.holdExpire {
		return
	}
	j := e.reserved
	c.releaseHeld(e)
	j.Executors--
	c.activeCount--
	c.free.add(e.id)
	c.invalidate()
}

// finishStage propagates completion to children and detects job
// completion.
func (c *Cluster) finishStage(j *JobRun, st *StageRun) {
	j.StagesDone++
	for _, childID := range st.Stage.Children {
		child := j.Stages[childID]
		child.ParentsLeft--
		if child.ParentsLeft == 0 {
			c.insertRunnable(j, child)
		}
	}
	if j.StagesDone == len(j.Stages) {
		j.Done = true
		j.CompletedAt = c.clock
		c.doneCount++
		// Release every executor the job was holding (standalone mode).
		for _, e := range j.held {
			e.reserved = nil
			e.lastJob = j.index
			j.Executors--
			c.activeCount--
			c.reservedIdle.remove(e.id)
			c.free.add(e.id)
		}
		j.held = j.held[:0]
		j.runnable = j.runnable[:0]
		c.updateReady(j)
		for i, job := range c.active {
			if job == j {
				copy(c.active[i:], c.active[i+1:])
				c.active[len(c.active)-1] = nil
				c.active = c.active[:len(c.active)-1]
				break
			}
		}
		c.record(j)
		if c.stream != nil {
			c.doneScratch = append(c.doneScratch, j)
		}
	}
	c.invalidate()
}
