package sim

// Hyperscale streaming mode (DESIGN.md §10). RunStream drives Run's
// event loop with a different source of admissions: jobs are drawn
// lazily from a JobSource as their arrival times come due, completed
// jobs' runtime state is retired eagerly back into a per-cluster pool
// (arena-backed stage records), and per-job outputs fold into
// constant-memory streaming reducers. Peak memory is proportional to the
// in-flight job count — offered load times sojourn time — not to the
// total number of jobs simulated, which is what lets one cluster process
// millions of jobs on thousands of executors without materializing any
// O(jobs) state.

import (
	"errors"
	"fmt"
	"math"

	"pcaps/internal/dag"
	"pcaps/internal/metrics"
)

// JobSource yields the jobs of a run lazily, in non-decreasing Arrival
// order, returning (nil, nil) when the stream is exhausted.
// workload.NewSource adapts the seeded generator to this contract.
type JobSource interface {
	Next() (*dag.Job, error)
}

// SliceSource adapts an in-memory batch to the JobSource contract. The
// equivalence tests stream a batch through it to compare with Run.
type SliceSource struct {
	Jobs []*dag.Job
	next int
}

// Next yields the next job, or (nil, nil) past the end.
func (s *SliceSource) Next() (*dag.Job, error) {
	if s.next >= len(s.Jobs) {
		return nil, nil
	}
	j := s.Jobs[s.next]
	s.next++
	return j, nil
}

// StreamStats is the constant-memory summary RunStream folds per-job
// outputs into. Quantiles are P² sketch estimates (deterministic for a
// given completion sequence, but not the exact order statistics — see
// metrics.P2Quantile); the backlog figures are exact.
type StreamStats struct {
	// Admitted counts jobs drawn from the source.
	Admitted int
	// PeakInFlight is the maximum number of jobs simultaneously admitted
	// and incomplete — the quantity the engine's memory is proportional to.
	PeakInFlight int
	// MeanInFlight is the time-weighted mean of the same depth.
	MeanInFlight float64
	// P50JCT, P95JCT, P99JCT are sketch estimates of the job-completion-
	// time quantiles in seconds.
	P50JCT, P95JCT, P99JCT float64
	// RecycledRuns counts JobRun records served from the retirement pool
	// rather than freshly allocated.
	RecycledRuns int
}

// streamState is RunStream's side of a cluster: the source with its
// one-job lookahead, the retirement pool, and the reducers.
type streamState struct {
	src         JobSource
	next        *dag.Job // nil once the source is exhausted
	lastArrival float64
	pool        runPool
	backlog     metrics.StreamBacklog
	p50         *metrics.P2Quantile
	p95         *metrics.P2Quantile
	p99         *metrics.P2Quantile
}

// RunStream simulates jobs drawn lazily from src under the scheduler
// until the source is exhausted and every admitted job completes. It
// runs Run's event loop, so small batches produce summaries identical to
// Run (bit-for-bit when PerJobResults is set; AvgJCT differs only by
// float re-association otherwise) — pinned by TestRunStreamMatchesRun —
// while memory stays bounded by the in-flight job count.
//
// TrackJobUsage and Observer are incompatible with state retirement
// (both expose per-job state whose lifetime streaming deliberately
// ends early) and are rejected.
func RunStream(cfg Config, src JobSource, s Scheduler) (*Result, error) {
	if src == nil {
		return nil, errors.New("sim: RunStream requires a job source")
	}
	if cfg.TrackJobUsage {
		return nil, errors.New("sim: RunStream does not support TrackJobUsage (per-job state is retired eagerly)")
	}
	if cfg.Observer != nil {
		return nil, errors.New("sim: RunStream does not support Observer (retired state must not escape)")
	}
	c, err := newCluster(cfg, nil)
	if err != nil {
		return nil, err
	}
	c.perJob = cfg.PerJobResults
	c.stream = &streamState{
		src:         src,
		lastArrival: math.Inf(-1),
		p50:         metrics.NewP2Quantile(0.50),
		p95:         metrics.NewP2Quantile(0.95),
		p99:         metrics.NewP2Quantile(0.99),
	}
	if err := c.stream.fetch(); err != nil {
		return nil, err
	}
	if err := c.run(s); err != nil {
		return nil, err
	}
	return c.result(s.Name())
}

// fetch pulls the source's next job into the lookahead.
func (st *streamState) fetch() error {
	j, err := st.src.Next()
	if err != nil {
		return fmt.Errorf("sim: job source: %w", err)
	}
	st.next = j
	return nil
}

// retire returns the streamed jobs completed by the step just processed
// to the pool. Retirement runs strictly after the step's scheduling
// pass, when nothing in the cluster references the finished job.
//
//pcaps:hotpath
func (c *Cluster) retire() {
	for i, j := range c.doneScratch {
		c.stream.pool.release(j)
		c.doneScratch[i] = nil
	}
	c.doneScratch = c.doneScratch[:0]
}

// runPool recycles JobRun records between admissions. Stage records live
// in a per-JobRun arena ([]StageRun) whose capacity grows to the widest
// job seen and is then reused, so steady-state admission allocates
// nothing beyond the dag.Job itself. Released runs drop their dag and
// stage pointers: the pool must never extend a retired job's object
// lifetime, only its containers'.
type runPool struct {
	free     []*JobRun
	recycled int
}

// acquire returns a JobRun for the job, reusing a retired record's
// backing arrays when one is available.
//
//pcaps:hotpath
func (p *runPool) acquire(j *dag.Job, index int) *JobRun {
	var jr *JobRun
	if n := len(p.free); n > 0 {
		jr = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.recycled++
	} else {
		//hot:alloc pool miss; steady state reuses retired records
		jr = &JobRun{}
	}
	ns := len(j.Stages)
	arena, stages := jr.arena, jr.Stages
	if cap(arena) < ns {
		//hot:alloc arena growth to the widest job seen, then reused
		arena = make([]StageRun, ns)
	} else {
		arena = arena[:ns]
	}
	if cap(stages) < ns {
		//hot:alloc stage-pointer growth to the widest job seen, then reused
		stages = make([]*StageRun, ns)
	} else {
		stages = stages[:ns]
	}
	runnable, held, gen := jr.runnable[:0], jr.held[:0], jr.gen+1
	*jr = JobRun{Job: j, Stages: stages, arena: arena, index: index, runnable: runnable, held: held, gen: gen}
	for i, stg := range j.Stages {
		arena[i] = StageRun{Stage: stg, ParentsLeft: len(stg.Parents)}
		stages[i] = &arena[i]
	}
	return jr
}

// release retires a completed run back to the pool, clearing every
// pointer to the job's immutable structure so the dag becomes garbage
// the moment its run is recycled.
//
//pcaps:hotpath
func (p *runPool) release(jr *JobRun) {
	jr.Job = nil
	for i := range jr.arena {
		jr.arena[i].Stage = nil
	}
	//hot:alloc amortized free-list growth; bounded by peak in-flight jobs
	p.free = append(p.free, jr)
}
