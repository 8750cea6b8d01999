package sim

// Common-prefix group execution (see DESIGN.md §7). Sweep and comparison
// experiments run the same (cfg, jobs, seed) cell under several policy
// variants whose decisions coincide for long prefixes of the run — CAP at
// full quota is exactly its inner scheduler, and PCAPS over Decima shares
// Decima's sampling stream until the first filtered or parallelism-scaled
// decision. RunGroup exploits that: one master simulation advances the
// shared state while every attached variant's scheduler is consulted at
// each decision point; the moment a variant's decision would produce a
// different state transition, it forks onto a cheap in-memory clone of the
// cluster (µs, no JSON round-trip — contrast Cluster.Snapshot) and runs to
// completion independently. Determinism makes this sound: with identical
// seeds and identical decision effects, the shared trajectory is
// bit-for-bit the trajectory each variant would have produced alone.

import (
	"fmt"
	"math/rand"
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

// forkable reports whether a configuration supports lockstep group
// execution. Jitter and failure injection consume the cluster RNG (whose
// draw order would interleave across variants), stateful forecasters and
// observers cannot be cloned, and per-job usage rows are not worth the
// clone complexity — those configurations fall back to independent runs.
func forkable(cfg Config) bool {
	return cfg.DurationJitter == 0 && cfg.FailureRate == 0 &&
		cfg.Forecaster == nil && cfg.Observer == nil && !cfg.TrackJobUsage
}

// RunGroup simulates the batch under every scheduler, sharing the common
// decision prefix across variants (one state evolution, per-variant
// forks at divergence). Results are positionally parallel to scheds and
// byte-identical to len(scheds) independent Run calls. Configurations
// that cannot fork (see forkable) degrade to exactly those calls.
func RunGroup(cfg Config, jobs []*dag.Job, scheds []Scheduler) ([]*Result, error) {
	if len(scheds) == 0 {
		return nil, fmt.Errorf("sim: RunGroup needs at least one scheduler")
	}
	if len(scheds) == 1 || !forkable(cfg) {
		results := make([]*Result, len(scheds))
		for i, s := range scheds {
			r, err := Run(cfg, jobs, s)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	c, err := newCluster(cfg, jobs)
	if err != nil {
		return nil, err
	}
	vs := make([]*groupVariant, len(scheds))
	for i, s := range scheds {
		vs[i] = &groupVariant{s: s}
	}
	g := group(slices.Clone(vs))
	if err := c.run(&g); err != nil {
		return nil, err
	}
	// The master state is the final state of every still-attached variant.
	for i, v := range g {
		if i > 0 {
			// Results must not share mutable backing arrays.
			c.usage, c.jcts, c.jobCarbon = slices.Clone(c.usage), slices.Clone(c.jcts), slices.Clone(c.jobCarbon)
		}
		c.deferrals, c.deferredWork = v.deferrals, v.deferredWork
		v.result, v.err = c.result(v.s.Name())
	}
	results := make([]*Result, len(vs))
	for i, v := range vs {
		if v.err != nil {
			return nil, v.err
		}
		results[i] = v.result
	}
	return results, nil
}

// group is the lockstep Scheduler RunGroup runs the event loop under:
// the variants still attached to the shared state, the first of which
// (the master) decides.
type group []*groupVariant

func (g *group) Name() string { return (*g)[0].s.Name() }

// Pick asks every attached variant for its decision on the shared state,
// each with its own deferral counters. A variant whose decision would
// change the state differently from the master's forks onto a clone of
// the state and finishes there; the master's decision drives the loop.
func (g *group) Pick(c *Cluster) Decision {
	var d0 Decision
	var e0 decisionEffect
	keep := (*g)[:0]
	for i, v := range *g {
		c.deferrals, c.deferredWork = v.deferrals, v.deferredWork
		d := v.s.Pick(c)
		v.deferrals, v.deferredWork = c.deferrals, c.deferredWork
		switch e := c.effectOf(d); {
		case i == 0:
			d0, e0 = d, e
			keep = append(keep, v)
		case e == e0:
			keep = append(keep, v)
		default:
			v.fork(c, d)
		}
	}
	*g = keep
	return d0
}

// decisionEffect is the state transition a Decision produces: a defer,
// or the stage it targets with bindRule's limit and bind count. Two
// decisions with equal effects leave the cluster in identical states, so
// a shadow variant stays attached exactly while its effects match the
// master's.
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

// fork detaches the variant at its divergent decision d: clone the
// shared state (with the variant's deferral counters, which Pick has just
// loaded), finish the open scheduling pass there with d replayed first,
// and run the clone to completion under the variant's scheduler.
func (v *groupVariant) fork(master *Cluster, d Decision) {
	c, jm, sm := master.clone()
	d.Ref.Job, d.Ref.Stage = jm[d.Ref.Job], sm[d.Ref.Stage]
	if v.err = c.pass(&replay{Scheduler: v.s, d: &d}); v.err != nil {
		return
	}
	if v.err = c.run(v.s); v.err != nil {
		return
	}
	v.result, v.err = c.result(v.s.Name())
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
// referenced by nothing), the held/runnable indexes, both ID heaps, the
// event heap (sequence counter preserved — event ordering is part of the
// trajectory), the usage timeline and the per-job results so far.
// Immutable structure is shared: *dag.Job and *dag.Stage are never
// mutated after validation, and the carbon trace is read-only. The
// returned maps translate master JobRun and StageRun pointers to their
// clones (for remapping in-flight decision refs). The cluster RNG is
// rebuilt from the seed — forkable() guarantees it was never drawn from.
func (c *Cluster) clone() (*Cluster, map[*JobRun]*JobRun, map[*StageRun]*StageRun) {
	n := &Cluster{
		cfg:            c.cfg,
		clock:          c.clock,
		rng:            rand.New(rand.NewSource(c.cfg.Seed)),
		busyCount:      c.busyCount,
		activeCount:    c.activeCount,
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
		retries:          c.retries,
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
	n.free = append(make(intHeap, 0, cap(c.free)), c.free...)
	n.reservedIdle = append(intHeap(nil), c.reservedIdle...)
	n.events = eventHeap{items: make([]event, len(c.events.items)), seq: c.events.seq}
	for i, ev := range c.events.items {
		if ev.exec != nil {
			ev.exec = n.execs[ev.exec.id]
		}
		n.events.items[i] = ev
	}
	n.usage = append(make([]float64, 0, cap(c.usage)), c.usage...)
	n.jcts, n.jobCarbon = slices.Clone(c.jcts), slices.Clone(c.jobCarbon)
	return n, jm, sm
}
