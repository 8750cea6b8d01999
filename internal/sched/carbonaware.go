package sched

import (
	"fmt"
	"math"
	"math/rand"

	"pcaps/internal/core"
	"pcaps/internal/sim"
)

// boundsKey identifies a forecast window. The threshold structures are
// a pure function of the window (and of K, B or γ, fixed per wrapper),
// so each wrapper keeps the structure of the last window it saw and
// rebuilds it when the window changes. The window moves only with the
// clock, and measured runs never returned to an earlier window, so a
// cache of every window only ever hit on the last one.
type boundsKey struct{ l, u float64 }

// windowKey reads the cluster's forecast window and clamps it to what
// the threshold constructors accept: L ≤ 0 becomes 1e-3, and U < L
// becomes L.
//
//pcaps:hotpath
func windowKey(c *sim.Cluster) boundsKey {
	l, u := c.CarbonBounds()
	if l <= 0 {
		l = 1e-3
	}
	if u < l {
		u = l
	}
	return boundsKey{l, u}
}

// CAPWrap applies CAP (§4.2) on top of any carbon-agnostic scheduler: a
// quota r(t) from the k-search thresholds gates new executor assignments
// (no preemption), and the inner scheduler's parallelism limit is scaled
// by r(t)/K (§5.1).
type CAPWrap struct {
	// Inner is the wrapped carbon-agnostic scheduler.
	Inner sim.Scheduler
	// B is the minimum machine quota guaranteeing progress.
	B int
	// WorkConserving redirects a pick the cluster cannot act on — the
	// inner's chosen stage already runs at its carbon-scaled limit but
	// still has undispatched tasks, so the assignment loop would bind
	// zero executors and abort the round (head-of-line blocking,
	// Appendix A.1.2) — to the first runnable stage that can accept an
	// executor, still under the quota and the scaled per-stage limit.
	// Off by default: the historical behaviour lets the round abort,
	// and the recorded experiment goldens pin it.
	WorkConserving bool

	// prov is the provisioner for window key; nil before the first Pick.
	key      boundsKey
	prov     *core.CAP
	minQuota int
}

// NewCAP wraps inner with a CAP provisioner using minimum quota b.
func NewCAP(inner sim.Scheduler, b int) *CAPWrap {
	return &CAPWrap{Inner: inner, B: b, minQuota: math.MaxInt}
}

// Name implements sim.Scheduler.
func (w *CAPWrap) Name() string { return fmt.Sprintf("CAP-%s", w.Inner.Name()) }

// MinQuotaSeen returns M(B,c) over the run (math.MaxInt before any Pick).
func (w *CAPWrap) MinQuotaSeen() int { return w.minQuota }

// provisioner returns the CAP instance for the current forecast window,
// building it when the window has changed since the last call.
func (w *CAPWrap) provisioner(c *sim.Cluster) *core.CAP {
	key := windowKey(c)
	if w.prov != nil && w.key == key {
		return w.prov
	}
	b := w.B
	if b < 1 {
		b = 1
	}
	if b > c.K() {
		b = c.K()
	}
	p, err := core.NewCAP(c.K(), b, key.l, key.u)
	if err != nil {
		// windowKey sanitizes the bounds; treat failure as carbon-agnostic.
		p, _ = core.NewCAP(c.K(), c.K(), key.l, key.u)
	}
	w.key, w.prov = key, p
	return p
}

// Pick implements sim.Scheduler.
//
//pcaps:hotpath
func (w *CAPWrap) Pick(c *sim.Cluster) sim.Decision {
	p := w.provisioner(c)
	quota := p.Quota(c.Carbon())
	if quota < w.minQuota {
		w.minQuota = quota
	}
	headroom := quota - c.BusyCount()
	if headroom <= 0 {
		return sim.DeferDecision
	}
	d := w.Inner.Pick(c)
	if d.Defer || d.Ref.Stage == nil {
		return d
	}
	planned := d.Limit
	if planned < 1 || planned > d.Ref.Stage.Stage.NumTasks {
		planned = d.Ref.Stage.Stage.NumTasks
	}
	d.Limit = p.ParallelismLimit(planned, c.Carbon())
	if w.WorkConserving && !refAccepts(c, d.Ref, d.Limit) {
		d = w.redirect(c, p)
		if d.Defer {
			return d
		}
	}
	if d.MaxNew < 1 || d.MaxNew > headroom {
		d.MaxNew = headroom
	}
	return d
}

// refAccepts reports whether the stage can take at least one new executor
// under the limit in force and the cluster's per-job cap — i.e. whether
// the assignment loop would bind anything for this decision.
//
//pcaps:hotpath
func refAccepts(c *sim.Cluster, ref sim.StageRef, limit int) bool {
	if ref.Stage.Running >= limit || ref.Stage.RemainingTasks() == 0 {
		return false
	}
	if cap := c.PerJobCap(); cap > 0 && ref.Job.Executors >= cap {
		return false
	}
	return true
}

// redirect is the WorkConserving fallback: the first runnable stage (the
// view is job-major in arrival order) that can accept an executor under
// its carbon-scaled limit, or a deferral when every stage is saturated.
//
//pcaps:hotpath
func (w *CAPWrap) redirect(c *sim.Cluster, p *core.CAP) sim.Decision {
	carbon := c.Carbon()
	for _, ref := range c.Runnable() {
		lim := p.ParallelismLimit(ref.Stage.Stage.NumTasks, carbon)
		if refAccepts(c, ref, lim) {
			return sim.Decision{Ref: ref, Limit: lim}
		}
	}
	return sim.DeferDecision
}

// PCAPS is the paper's primary contribution (§4.1, Alg. 1): a carbon-
// awareness filter over a probabilistic scheduler. At each scheduling
// event it samples a stage from the inner distribution, computes its
// relative importance r (Def. 4.2), and schedules it iff Ψγ(r) ≥ c(t) or
// no machine is busy; otherwise the cluster idles until the next event.
// Scheduled stages get the carbon-scaled parallelism limit of §5.1.
type PCAPS struct {
	// PB is the wrapped probabilistic scheduler.
	PB Probabilistic
	// Gamma is the carbon-awareness knob γ ∈ [0,1].
	Gamma float64
	// Seed drives stage sampling.
	Seed int64

	// ps is the threshold function for window key; nil before the
	// first Pick.
	key boundsKey
	ps  *core.Psi
	rng *rand.Rand
}

// NewPCAPS wraps a probabilistic scheduler with carbon-awareness γ.
func NewPCAPS(pb Probabilistic, gamma float64, seed int64) *PCAPS {
	return &PCAPS{PB: pb, Gamma: gamma, Seed: seed}
}

// Name implements sim.Scheduler.
func (p *PCAPS) Name() string { return "PCAPS" }

// psi returns the threshold function for the current forecast window,
// building it when the window has changed since the last call.
func (p *PCAPS) psi(c *sim.Cluster) *core.Psi {
	key := windowKey(c)
	if p.ps != nil && p.key == key {
		return p.ps
	}
	ps, err := core.NewPsi(p.Gamma, key.l, key.u)
	if err != nil {
		ps, _ = core.NewPsi(0, key.l, key.u) // sanitized inputs; fall back to agnostic
	}
	p.key, p.ps = key, ps
	return ps
}

// Pick implements sim.Scheduler (Alg. 1 lines 4-10). The distribution's
// refs and probs are inner-scheduler-owned scratch (valid until the next
// Distribution call), so sampling and admission happen before any further
// scheduling work.
//
//pcaps:hotpath
func (p *PCAPS) Pick(c *sim.Cluster) sim.Decision {
	refs, probs := p.PB.Distribution(c)
	if len(refs) == 0 {
		return sim.DeferDecision
	}
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.Seed))
	}
	v := sampleIndex(p.rng, probs)
	r := core.RelativeImportance(probs, v)
	psi := p.psi(c)
	if !psi.Admits(r, c.Carbon()) && c.BusyCount() > 0 {
		c.NoteDeferral(refs[v])
		return sim.DeferDecision
	}
	planned := p.PB.PlannedLimit(c, refs[v])
	return sim.Decision{Ref: refs[v], Limit: psi.ParallelismLimit(planned, c.Carbon())}
}

//pcaps:hotpath
func sampleIndex(rng *rand.Rand, probs []float64) int {
	x := rng.Float64()
	var cum float64
	for i, pr := range probs {
		cum += pr
		if x < cum {
			return i
		}
	}
	return len(probs) - 1
}
