package federation

// RoundRobin is the throughput-fair baseline: clusters take turns in
// index order, ignoring carbon entirely.
type RoundRobin struct{ next int }

// NewRoundRobin returns a fresh round-robin router.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Router.
func (r *RoundRobin) Name() string { return "round-robin" }

// Reset implements Router.
func (r *RoundRobin) Reset() { r.next = 0 }

// Route implements Router.
func (r *RoundRobin) Route(clusters []ClusterState) int {
	idx := r.next % len(clusters)
	r.next++
	return idx
}

// LowestIntensity routes each job to the cluster whose grid is cleanest
// right now (ties broken by lowest index). It is greedy and myopic: a
// grid that is cheap at arrival but about to peak still attracts the
// job — the failure mode ForecastAware exists to avoid.
type LowestIntensity struct{}

// NewLowestIntensity returns the greedy current-intensity router.
func NewLowestIntensity() *LowestIntensity { return &LowestIntensity{} }

// Name implements Router.
func (LowestIntensity) Name() string { return "lowest-intensity" }

// Reset implements Router.
func (LowestIntensity) Reset() {}

// Route implements Router.
func (LowestIntensity) Route(clusters []ClusterState) int {
	best := 0
	for i := 1; i < len(clusters); i++ {
		if clusters[i].Intensity < clusters[best].Intensity {
			best = i
		}
	}
	return best
}

// DefaultHysteresis is ForecastAware's default switching margin: a new
// cluster must look at least 5% cleaner than the incumbent to win the
// job.
const DefaultHysteresis = 0.05

// ForecastAware routes on expected carbon over the job's estimated span:
// each cluster is scored by the midpoint of its forecast (L, U) bounds
// over [arrival, arrival+span], the min/max average of the member's
// trace over that window. A
// hysteresis margin keeps the router anchored to its previous choice
// unless a challenger is decisively better, so near-equal grids do not
// thrash jobs — and executor move-delay and cache warmth with them —
// back and forth every arrival.
type ForecastAware struct {
	// Hysteresis is the relative margin a challenger must clear; zero
	// selects DefaultHysteresis, negative disables hysteresis.
	Hysteresis float64

	last int
}

// NewForecastAware returns a forecast-driven router with the default
// hysteresis margin.
func NewForecastAware() *ForecastAware { return &ForecastAware{last: -1} }

// Name implements Router.
func (f *ForecastAware) Name() string { return "forecast-aware" }

// Reset implements Router.
func (f *ForecastAware) Reset() { f.last = -1 }

// score is the expected intensity over the job's span on one cluster.
func (f *ForecastAware) score(c ClusterState) float64 { return (c.Low + c.High) / 2 }

// Route implements Router.
func (f *ForecastAware) Route(clusters []ClusterState) int {
	best := 0
	for i := 1; i < len(clusters); i++ {
		if f.score(clusters[i]) < f.score(clusters[best]) {
			best = i
		}
	}
	margin := f.Hysteresis
	if margin == 0 {
		margin = DefaultHysteresis
	}
	if f.last >= 0 && f.last < len(clusters) && f.last != best {
		// Stick with the incumbent unless the challenger clears the
		// margin.
		if f.score(clusters[f.last]) <= f.score(clusters[best])*(1+margin) {
			return f.last
		}
	}
	f.last = best
	return best
}
