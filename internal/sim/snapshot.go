package sim

import (
	"fmt"
	"math"
	"sort"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
)

// Snapshot is the serializable scheduler view of a cluster at one
// scheduling event: everything a Scheduler.Pick can observe — the
// active jobs with their per-stage progress, every executor's state,
// and the carbon signal with its frozen forecast bounds. A snapshot
// round-trips losslessly through JSON, and Restore rebuilds a cluster
// on which any scheduler's Pick returns exactly the decision it would
// have returned live (the contract the placement service and its
// equivalence tests pin).
//
// A snapshot is a point-in-time export: decisions computed from one are
// only as fresh as the capture. The carbon trace is embedded whole
// because the green-fraction signals are functions of absolute trace
// time (±48-interval windows), not just of the current value.
type Snapshot struct {
	// TimeSec is the simulation clock at capture.
	TimeSec float64 `json:"time_sec"`
	// NumExecutors is the cluster size K.
	NumExecutors int `json:"num_executors"`
	// PerJobCap bounds executors per job; 0 means unlimited.
	PerJobCap int `json:"per_job_cap,omitempty"`
	// Carbon is the signal and frozen forecast.
	Carbon CarbonSnapshot `json:"carbon"`
	// Jobs are the active (arrived, incomplete) jobs in batch order.
	Jobs []JobSnapshot `json:"jobs"`
	// Executors holds one entry per executor, indexed by executor ID.
	Executors []ExecutorSnapshot `json:"executors"`
}

// CarbonSnapshot embeds the carbon trace and the forecast bounds that
// were in force at capture. The bounds are frozen values: a restored
// cluster answers CarbonBounds with them, not with the embedded trace's
// window extremes.
type CarbonSnapshot struct {
	Grid        string    `json:"grid"`
	IntervalSec float64   `json:"interval_sec"`
	Values      []float64 `json:"values"`
	// ForecastHorizonSec is the configured lookahead window.
	ForecastHorizonSec float64 `json:"forecast_horizon_sec"`
	// ForecastLow / ForecastHigh are the (L, U) bounds at capture time.
	ForecastLow  float64 `json:"forecast_low"`
	ForecastHigh float64 `json:"forecast_high"`
}

// JobSnapshot is one active job: its immutable DAG plus per-stage
// progress. Stage parallels DAG.Stages by stage ID.
type JobSnapshot struct {
	DAG    *dag.Job        `json:"dag"`
	Stages []StageSnapshot `json:"stages"`
}

// StageSnapshot is one stage's dispatch progress. The scheduler-visible
// invariant Dispatched = Completed + Running holds at every event
// boundary and is enforced on restore.
type StageSnapshot struct {
	Dispatched int `json:"dispatched"`
	Completed  int `json:"completed"`
	Running    int `json:"running"`
	// Limit is the parallelism limit in force (0: not yet scheduled).
	Limit int `json:"limit,omitempty"`
}

// Executor states in a snapshot.
const (
	// ExecIdle is an executor in the shared free pool.
	ExecIdle = "idle"
	// ExecBusy is an executor running a task of Job/Stage.
	ExecBusy = "busy"
	// ExecHeld is an executor retained by Job between tasks
	// (HoldExecutors mode).
	ExecHeld = "held"
)

// ExecutorSnapshot is one executor's state. Job indexes Snapshot.Jobs;
// Stage is a stage ID within that job. Both are -1 when inapplicable.
type ExecutorSnapshot struct {
	State string `json:"state"`
	Job   int    `json:"job"`
	Stage int    `json:"stage"`
}

// Snapshot exports the scheduler-visible cluster state. It is
// read-only: the returned snapshot copies the stage counters and
// executor states, so it stays valid after the simulation moves on.
func (c *Cluster) Snapshot() *Snapshot {
	tr := c.cfg.Trace
	lo, hi := c.CarbonBounds()
	s := &Snapshot{
		TimeSec:      c.clock,
		NumExecutors: c.cfg.NumExecutors,
		PerJobCap:    c.cfg.PerJobCap,
		Carbon: CarbonSnapshot{
			Grid:               tr.Grid,
			IntervalSec:        tr.Interval,
			Values:             tr.Values,
			ForecastHorizonSec: c.cfg.ForecastHorizon,
			ForecastLow:        lo,
			ForecastHigh:       hi,
		},
		Jobs:      make([]JobSnapshot, 0, len(c.active)),
		Executors: make([]ExecutorSnapshot, len(c.execs)),
	}
	index := make(map[*JobRun]int, len(c.active))
	for i, j := range c.active {
		index[j] = i
		js := JobSnapshot{DAG: j.Job, Stages: make([]StageSnapshot, len(j.Stages))}
		for si, st := range j.Stages {
			js.Stages[si] = StageSnapshot{
				Dispatched: st.Dispatched, Completed: st.Completed,
				Running: st.Running, Limit: st.Limit,
			}
		}
		s.Jobs = append(s.Jobs, js)
	}
	for i, e := range c.execs {
		es := ExecutorSnapshot{State: ExecIdle, Job: -1, Stage: -1}
		switch {
		case e.busy:
			es.State = ExecBusy
			es.Job = index[e.job]
			es.Stage = e.stage.Stage.ID
		case e.reserved != nil:
			es.State = ExecHeld
			es.Job = index[e.reserved]
		}
		s.Executors[i] = es
	}
	return s
}

// snapErr names the offending snapshot field by its JSON path.
func snapErr(field, format string, args ...any) error {
	return fmt.Errorf("sim: snapshot.%s: %s", field, fmt.Sprintf(format, args...))
}

// Restore rebuilds a cluster in the snapshot's state, validating every
// field (errors name the offending field by JSON path). The cluster
// supports the scheduler view API and Place/Pick; it is not resumable
// as a simulation (no pending events).
func (s *Snapshot) Restore() (*Cluster, error) {
	if s.NumExecutors < 1 {
		return nil, snapErr("num_executors", "need at least one executor, got %d", s.NumExecutors)
	}
	if s.PerJobCap < 0 {
		return nil, snapErr("per_job_cap", "negative per-job cap %d", s.PerJobCap)
	}
	if math.IsNaN(s.TimeSec) || math.IsInf(s.TimeSec, 0) || s.TimeSec < 0 {
		return nil, snapErr("time_sec", "bad capture time %v", s.TimeSec)
	}
	tr, err := carbon.New(s.Carbon.Grid, s.Carbon.IntervalSec, s.Carbon.Values)
	if err != nil {
		return nil, snapErr("carbon", "%v", err)
	}
	horizon := s.Carbon.ForecastHorizonSec
	if horizon <= 0 {
		horizon = 48 * tr.Interval
	}
	lo, hi := s.Carbon.ForecastLow, s.Carbon.ForecastHigh
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) || lo > hi {
		return nil, snapErr("carbon.forecast_low", "bad forecast bounds [%v, %v]", lo, hi)
	}
	if len(s.Executors) != s.NumExecutors {
		return nil, snapErr("executors", "%d executor entries for %d executors", len(s.Executors), s.NumExecutors)
	}

	// The captured bounds fill the CarbonBounds memo at the capture time;
	// with no events the clock never moves, so the memo is never
	// recomputed from the trace.
	c := &Cluster{
		cfg: Config{
			NumExecutors:    s.NumExecutors,
			Trace:           tr,
			ForecastHorizon: horizon,
			PerJobCap:       s.PerJobCap,
		},
		clock:       s.TimeSec,
		epoch:       1,
		boundsClock: s.TimeSec,
		boundsLo:    lo,
		boundsHi:    hi,
	}
	// Field paths are formatted only on the way to an error: a valid
	// snapshot builds none.
	for i, js := range s.Jobs {
		if js.DAG == nil {
			return nil, snapErr(fmt.Sprintf("jobs[%d].dag", i), "missing job DAG")
		}
		job := js.DAG
		if err := job.Validate(); err != nil {
			return nil, snapErr(fmt.Sprintf("jobs[%d].dag", i), "%v", err)
		}
		if len(js.Stages) != len(job.Stages) {
			return nil, snapErr(fmt.Sprintf("jobs[%d].stages", i), "%d stage entries for %d stages", len(js.Stages), len(job.Stages))
		}
		run := &JobRun{Job: job, Stages: make([]*StageRun, len(job.Stages)), Arrived: true, index: i}
		for si, st := range job.Stages {
			ss := js.Stages[si]
			if ss.Dispatched < 0 || ss.Dispatched > st.NumTasks {
				return nil, snapErr(stageField(i, si, "dispatched"), "%d dispatched of %d tasks", ss.Dispatched, st.NumTasks)
			}
			if ss.Completed < 0 || ss.Running < 0 {
				return nil, snapErr(stageField(i, si, "completed"), "negative progress (completed %d, running %d)", ss.Completed, ss.Running)
			}
			if ss.Completed+ss.Running != ss.Dispatched {
				return nil, snapErr(stageField(i, si, "running"), "dispatched %d ≠ completed %d + running %d", ss.Dispatched, ss.Completed, ss.Running)
			}
			if ss.Limit < 0 || ss.Limit > st.NumTasks {
				return nil, snapErr(stageField(i, si, "limit"), "limit %d outside [0, %d]", ss.Limit, st.NumTasks)
			}
			run.Stages[si] = &StageRun{
				Stage: st, Dispatched: ss.Dispatched, Completed: ss.Completed,
				Running: ss.Running, Limit: ss.Limit,
			}
		}
		// Derive ParentsLeft from parent completion, then the runnable
		// index — the same invariants arrive/finishStage maintain live.
		for si, st := range job.Stages {
			sr := run.Stages[si]
			for _, p := range st.Parents {
				if run.Stages[p].Completed < job.Stages[p].NumTasks {
					sr.ParentsLeft++
				}
			}
			if sr.ParentsLeft > 0 && sr.Dispatched > 0 {
				return nil, snapErr(stageField(i, si, "dispatched"), "stage dispatched before its parents completed")
			}
			if sr.Completed == st.NumTasks {
				run.StagesDone++
			}
			if sr.Runnable() {
				run.runnable = append(run.runnable, sr)
			}
		}
		sort.Slice(run.runnable, func(a, b int) bool {
			return run.runnable[a].Stage.ID < run.runnable[b].Stage.ID
		})
		c.active = append(c.active, run)
	}

	c.execs = make([]*executor, s.NumExecutors)
	c.free, c.reservedIdle = newIDSet(s.NumExecutors), newIDSet(s.NumExecutors)
	// stageRunning cross-checks executor bindings against the per-stage
	// Running counters; keyed by (job index, stage ID).
	type jobStage struct{ job, stage int }
	stageRunning := map[jobStage]int{}
	for id, es := range s.Executors {
		e := &executor{id: id}
		c.execs[id] = e
		switch es.State {
		case ExecIdle:
			c.free.add(id)
		case ExecBusy, ExecHeld:
			if es.Job < 0 || es.Job >= len(c.active) {
				return nil, snapErr(fmt.Sprintf("executors[%d].job", id), "job index %d outside [0, %d)", es.Job, len(c.active))
			}
			j := c.active[es.Job]
			j.Executors++
			c.activeCount++
			if es.State == ExecHeld {
				e.reserved = j
				e.heldPos = len(j.held)
				j.held = append(j.held, e)
				c.reservedIdle.add(id)
				continue
			}
			if es.Stage < 0 || es.Stage >= len(j.Stages) {
				return nil, snapErr(fmt.Sprintf("executors[%d].stage", id), "stage ID %d outside [0, %d)", es.Stage, len(j.Stages))
			}
			e.busy = true
			e.job = j
			e.stage = j.Stages[es.Stage]
			c.busyCount++
			stageRunning[jobStage{es.Job, es.Stage}]++
		default:
			return nil, snapErr(fmt.Sprintf("executors[%d].state", id), "unknown executor state %q (have %s, %s, %s)",
				es.State, ExecIdle, ExecBusy, ExecHeld)
		}
	}
	for ji, js := range s.Jobs {
		for si := range js.Stages {
			if got, want := stageRunning[jobStage{ji, si}], js.Stages[si].Running; got != want {
				return nil, snapErr(stageField(ji, si, "running"), "%d running tasks but %d busy executors bound", want, got)
			}
		}
		// The runnable-job and hold-ready counts, through the live
		// engine's helper.
		c.updateReady(c.active[ji])
	}
	return c, nil
}

// stageField is the JSON path of one field of a stage's snapshot.
func stageField(job, stage int, leaf string) string {
	return fmt.Sprintf("jobs[%d].stages[%d].%s", job, stage, leaf)
}

// Placement is the serializable form of one scheduling decision: what a
// scheduler's Pick chose on a cluster, plus the executors the engine
// would bind for it (ascending IDs, exactly the assignment order of the
// live event loop). When Defer is set the scheduler idles the cluster
// and the remaining fields are zero.
type Placement struct {
	// Scheduler is the deciding policy's display name.
	Scheduler string `json:"scheduler"`
	// Defer reports that no stage is scheduled until the next event.
	Defer bool `json:"defer,omitempty"`
	// JobID / StageID identify the chosen stage (DAG identifiers).
	JobID   int `json:"job_id"`
	StageID int `json:"stage_id"`
	// Limit is the parallelism limit the decision puts in force.
	Limit int `json:"limit"`
	// MaxNew bounds executors bound by this single decision (<1: none).
	MaxNew int `json:"max_new,omitempty"`
	// ExecutorIDs are the executors the decision binds, in assignment
	// order.
	ExecutorIDs []int `json:"executor_ids,omitempty"`
}

// Place runs one Pick of s against the cluster and reports the decision
// together with the executors the engine's assignment loop would bind —
// without mutating any scheduling state, so successive calls with fresh
// scheduler instances are independent.
func (c *Cluster) Place(s Scheduler) Placement {
	d := s.Pick(c)
	p := Placement{Scheduler: s.Name()}
	if d.Defer || d.Ref.Stage == nil || d.Ref.Job == nil {
		p.Defer = true
		return p
	}
	limit, n, _ := c.bindRule(d)
	p.JobID = d.Ref.Job.Job.ID
	p.StageID = d.Ref.Stage.Stage.ID
	p.Limit = limit
	p.MaxNew = d.MaxNew
	if n > 0 {
		p.ExecutorIDs = c.free.peekN(n)
	}
	return p
}
