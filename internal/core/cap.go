package core

import (
	"math"

	"pcaps/internal/ksearch"
)

// CAP is the Carbon-Aware Provisioning module (§4.2): a time-varying
// resource quota derived from repeated rounds of (K−B)-search that can wrap
// any carbon-agnostic scheduler. It owns no scheduling policy — the cluster
// loop consults Quota before admitting new assignments and never preempts
// running work when the quota drops.
type CAP struct {
	th *ksearch.Thresholds
}

// NewCAP builds the provisioner for a cluster of k machines with minimum
// quota b and forecast carbon bounds l ≤ u.
func NewCAP(k, b int, l, u float64) (*CAP, error) {
	th, err := ksearch.NewThresholds(k, b, l, u)
	if err != nil {
		return nil, err
	}
	return &CAP{th: th}, nil
}

// K returns the cluster size the provisioner was built for.
func (c *CAP) K() int { return c.th.K }

// B returns the minimum quota floor.
func (c *CAP) B() int { return c.th.B }

// Thresholds exposes the underlying k-search threshold set.
func (c *CAP) Thresholds() *ksearch.Thresholds { return c.th }

// Quota returns the machine quota r(t) for the current carbon intensity.
// The quota is enforced without preemption: callers only gate *new*
// assignments on it.
//
//pcaps:hotpath
func (c *CAP) Quota(carbon float64) int { return c.th.Quota(carbon) }

// ParallelismLimit scales an underlying scheduler's per-stage parallelism
// limit by the quota ratio (§5.1): P' = ⌈P · r(t)/K⌉, clamped to [1, P].
//
//pcaps:hotpath
func (c *CAP) ParallelismLimit(planned int, carbon float64) int {
	if planned <= 1 {
		return 1
	}
	lim := int(math.Ceil(float64(planned) * float64(c.th.Quota(carbon)) / float64(c.th.K)))
	if lim < 1 {
		lim = 1
	}
	if lim > planned {
		lim = planned
	}
	return lim
}

// CAPStretchFactor is Theorem 4.5: with minimum observed quota m on a
// K-machine cluster, CAP's carbon stretch factor is
// (K/m)² · (2m−1)/(2K−1).
func CAPStretchFactor(k, m int) float64 {
	if m < 1 {
		m = 1
	}
	if m > k {
		m = k
	}
	km := float64(k) / float64(m)
	return km * km * (2*float64(m) - 1) / (2*float64(k) - 1)
}

// PCAPSStretchFactor is Theorem 4.3: with deferral fraction d = D(γ,c) ∈
// [0,1] on a K-machine cluster, PCAPS's carbon stretch factor is
// 1 + dK/(2 − 1/K).
func PCAPSStretchFactor(k int, d float64) float64 {
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	return 1 + d*float64(k)/(2-1/float64(k))
}
