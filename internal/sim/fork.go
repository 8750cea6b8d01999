package sim

// Common-prefix group execution (see DESIGN.md §7). Sweep and comparison
// experiments run the same (cfg, jobs, seed) cell under several policy
// variants whose decisions coincide for long prefixes of the run — CAP at
// full quota is exactly its inner scheduler, and PCAPS over Decima shares
// Decima's sampling stream until the first filtered or parallelism-scaled
// decision. RunGroup exploits that: one master simulation advances the
// shared state while every attached variant's scheduler is consulted at
// each decision point; the moment some variants' decisions would produce a
// different state transition, they fork onto a cheap in-memory clone of
// the cluster (µs, no JSON round-trip — contrast Cluster.Snapshot), those
// with equal transitions together, and share that clone the same way.
// Determinism makes this sound: with identical seeds and identical
// decision effects, the shared trajectory is bit-for-bit the trajectory
// each variant would have produced alone.

import (
	"errors"
	"slices"

	"pcaps/internal/dag"
)

// groupVariant tracks one scheduler's progress through a group run,
// with its own deferral counters: shadow schedulers evaluated on shared
// state must never pollute each other's.
type groupVariant struct {
	s            Scheduler
	deferrals    int
	deferredWork float64
	result       *Result
	err          error
}

// pick asks the variant for its decision with its own deferral counters
// loaded into the cluster.
func (v *groupVariant) pick(c *Cluster) Decision {
	c.deferrals, c.deferredWork = v.deferrals, v.deferredWork
	d := v.s.Pick(c)
	v.deferrals, v.deferredWork = c.deferrals, c.deferredWork
	return d
}

// RunGroup simulates the batch under every scheduler, sharing every
// common decision prefix across variants (one state evolution, forks at
// divergence). Results are positionally parallel to scheds and
// byte-identical to len(scheds) independent Run calls. An Observer is
// rejected: the shared state it would see belongs to no one variant.
func RunGroup(cfg Config, jobs []*dag.Job, scheds []Scheduler) ([]*Result, error) {
	if len(scheds) == 0 {
		return nil, errors.New("sim: RunGroup needs at least one scheduler")
	}
	if cfg.Observer != nil {
		return nil, errors.New("sim: RunGroup does not support Observer (variants share state until they fork)")
	}
	c, err := newCluster(cfg, jobs)
	if err != nil {
		return nil, err
	}
	g := make(group, len(scheds))
	for i, s := range scheds {
		g[i] = &groupVariant{s: s}
	}
	vs := slices.Clone(g)
	g.complete(c, nil)
	results := make([]*Result, len(vs))
	for i, v := range vs {
		if v.err != nil {
			return nil, v.err
		}
		results[i] = v.result
	}
	return results, nil
}

// group is the lockstep Scheduler a group run drives the event loop
// under: the variants still attached to one state, the first of which
// (the master) decides.
type group []*groupVariant

func (g *group) Name() string { return (*g)[0].s.Name() }

// Pick asks every attached variant for its decision on the shared state;
// the master's drives the loop. Variants whose decisions would change the
// state differently from the master's leave the group: those with equal
// effects fork together onto one clone of the state, as a group of their
// own, in order of first appearance. A group of one asks its variant
// directly.
func (g *group) Pick(c *Cluster) Decision {
	if len(*g) == 1 {
		return (*g)[0].pick(c)
	}
	type fork struct {
		e decisionEffect
		d Decision
		g group
	}
	var forks []fork
	d0 := (*g)[0].pick(c)
	e0 := c.effectOf(d0)
	keep := (*g)[:1]
	for _, v := range (*g)[1:] {
		d := v.pick(c)
		e := c.effectOf(d)
		if e == e0 {
			keep = append(keep, v)
			continue
		}
		k := slices.IndexFunc(forks, func(f fork) bool { return f.e == e })
		if k < 0 {
			k = len(forks)
			forks = append(forks, fork{e: e, d: d})
		}
		forks[k].g = append(forks[k].g, v)
	}
	*g = keep
	for _, f := range forks {
		n, jm, sm := c.clone()
		f.d.Ref.Job, f.d.Ref.Stage = jm[f.d.Ref.Job], sm[f.d.Ref.Stage]
		f.g.complete(n, &f.d)
	}
	return d0
}

// complete runs a group's state to the end and gives every variant still
// attached its result. A forked group first finishes the open scheduling
// pass with its divergent decision d replayed; the master group has none.
func (g *group) complete(c *Cluster, d *Decision) {
	var err error
	if d != nil {
		err = c.pass(&replay{Scheduler: g, d: d})
	}
	if err == nil {
		err = c.run(g)
	}
	for i, v := range *g {
		if v.err = err; err != nil {
			continue
		}
		if i > 0 {
			// Results must not share mutable backing arrays.
			c.usage, c.jcts, c.jobUsage = slices.Clone(c.usage), slices.Clone(c.jcts), cloneRows(c.jobUsage)
		}
		c.deferrals, c.deferredWork = v.deferrals, v.deferredWork
		v.result, v.err = c.result(v.s.Name())
	}
}

// decisionEffect is the state transition a Decision produces: a defer,
// or the stage it targets with bindRule's limit and bind count. Two
// decisions with equal effects leave the cluster in identical states, so
// a variant stays attached exactly while its effects match the master's.
type decisionEffect struct {
	deferred bool
	job      *JobRun
	stage    *StageRun
	limit    int
	binds    int
}

// effectOf computes a decision's effect without applying it. bindRule's
// ok flag is left out: it depends only on the job and stage.
func (c *Cluster) effectOf(d Decision) decisionEffect {
	if d.Defer {
		return decisionEffect{deferred: true}
	}
	e := decisionEffect{job: d.Ref.Job, stage: d.Ref.Stage}
	if e.job != nil && e.stage != nil {
		e.limit, e.binds, _ = c.bindRule(d)
	}
	return e
}

// replay answers its first Pick with a recorded decision and every later
// one from the wrapped scheduler. The clone's pass cannot skip that
// first Pick: the master had idle executors and runnable work when it
// asked, and the hold-mode pre-pass is a no-op (see schedule).
type replay struct {
	Scheduler
	d *Decision
}

func (r *replay) Pick(c *Cluster) Decision {
	if d := r.d; d != nil {
		r.d = nil
		return *d
	}
	return r.Scheduler.Pick(c)
}

// clone deep-copies the simulation state in memory: executors, the
// runtime records of the active and pending jobs (completed jobs are
// referenced by nothing), the held/runnable indexes, both executor ID
// sets, the event heap and the expiry queue's live entries (sequence
// counter preserved — event ordering is part of the trajectory; events
// name executors by ID, so they copy as they are), the usage timeline,
// the per-job usage rows and the per-job results so far.
// Immutable structure is shared: *dag.Job and *dag.Stage are never
// mutated after construction, and the carbon trace is read-only. The
// returned maps translate master JobRun and StageRun pointers to their
// clones (for remapping in-flight decision refs).
func (c *Cluster) clone() (*Cluster, map[*JobRun]*JobRun, map[*StageRun]*StageRun) {
	n := &Cluster{
		cfg:            c.cfg,
		clock:          c.clock,
		busyCount:      c.busyCount,
		activeCount:    c.activeCount,
		runnableJobs:   c.runnableJobs,
		holdReadyCount: c.holdReadyCount,
		doneCount:      c.doneCount,
		admitted:       c.admitted,
		processed:      c.processed,
		epoch:          c.epoch,
		// Force the cached views to rebuild on first use in the clone.
		runnableEpoch:    c.epoch - 1,
		outstandingEpoch: c.epoch - 1,
		deferrals:        c.deferrals,
		deferredWork:     c.deferredWork,
		totalWork:        c.totalWork,
		ect:              c.ect,
		sumJCT:           c.sumJCT,
		perJob:           c.perJob,
		boundsClock:      c.boundsClock,
		boundsLo:         c.boundsLo,
		boundsHi:         c.boundsHi,
	}
	jm := make(map[*JobRun]*JobRun, len(c.active)+len(c.pending))
	sm := make(map[*StageRun]*StageRun, 4*(len(c.active)+len(c.pending)))
	cloneJobs := func(jobs []*JobRun) []*JobRun {
		out := make([]*JobRun, len(jobs))
		for i, j := range jobs {
			// The copy keeps the record's memoized remaining work, which
			// sums the stage records copied below.
			nj := &JobRun{}
			*nj = *j
			nj.Stages = make([]*StageRun, len(j.Stages))
			for k, st := range j.Stages {
				nst := &StageRun{}
				*nst = *st
				nj.Stages[k] = nst
				sm[st] = nst
			}
			nj.runnable = make([]*StageRun, len(j.runnable))
			for k, st := range j.runnable {
				nj.runnable[k] = sm[st]
			}
			nj.held = make([]*executor, len(j.held)) // filled after executors clone
			out[i] = nj
			jm[j] = nj
		}
		return out
	}
	n.active, n.pending = cloneJobs(c.active), cloneJobs(c.pending)
	n.execs = make([]*executor, len(c.execs))
	for i, e := range c.execs {
		ne := &executor{}
		*ne = *e
		ne.job = jm[e.job]
		ne.stage = sm[e.stage]
		ne.reserved = jm[e.reserved]
		n.execs[i] = ne
		if ne.reserved != nil {
			ne.reserved.held[ne.heldPos] = ne
		}
	}
	n.free, n.reservedIdle = c.free.clone(), c.reservedIdle.clone()
	n.events = eventHeap{items: slices.Clone(c.events.items), seq: c.events.seq}
	n.expiries = append(make([]event, 0, cap(c.expiries)), c.expiries[c.expHead:]...)
	n.usage = append(make([]float64, 0, cap(c.usage)), c.usage...)
	n.jobUsage = cloneRows(c.jobUsage)
	n.jcts = slices.Clone(c.jcts)
	return n, jm, sm
}

// cloneRows deep-copies per-job usage rows. Nil stays nil: advance
// fills rows only when they exist.
func cloneRows(rows [][]float64) [][]float64 {
	out := slices.Clone(rows)
	for i, row := range out {
		out[i] = slices.Clone(row)
	}
	return out
}
