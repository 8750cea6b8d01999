package sched

import (
	"math"

	"pcaps/internal/sim"
)

// GreenHadoop is the adaptation of GreenHadoop [24] described in Appendix
// A.1.1. It derives a "green window" (how long until carbon-free capacity
// alone covers the outstanding work) and a "brown window" (how long at
// full capacity), blends them with the carbon-awareness knob θ, and at
// each scheduling event permits enough executors to consume all currently
// green capacity plus the uniform brown rate needed to finish inside the
// blended window. Within that executor budget, stages dispatch FIFO.
type GreenHadoop struct {
	// Theta blends the windows: 0 is carbon-agnostic (brown window),
	// 1 fully carbon-aware (green window). Default 0.5 as in A.1.1.
	Theta float64

	fifo FIFO
}

// greenHadoopLookahead bounds the green-window search in carbon
// intervals: four days at hourly granularity.
const greenHadoopLookahead = 96

// NewGreenHadoop returns the baseline with the paper's default θ = 0.5.
func NewGreenHadoop() *GreenHadoop { return &GreenHadoop{Theta: 0.5} }

// Name implements sim.Scheduler.
func (g *GreenHadoop) Name() string { return "GreenHadoop" }

// executorBudget computes the number of executors permitted right now.
// OutstandingWork is an epoch-cached cluster view, so the repeated budget
// evaluations within one scheduling event cost one pass over the active
// jobs in total.
//
//pcaps:hotpath
func (g *GreenHadoop) executorBudget(c *sim.Cluster) int {
	theta := g.Theta
	if theta < 0 {
		theta = 0
	}
	if theta > 1 {
		theta = 1
	}
	k := float64(c.K())
	iv := c.CarbonInterval()
	outstanding := c.OutstandingWork() // executor-seconds

	// Brown window: intervals to finish at full capacity.
	brown := math.Ceil(outstanding / (k * iv))

	// Green window: intervals until cumulative green capacity covers the
	// outstanding work; capped at the lookahead horizon.
	var greenSupply float64
	green := float64(greenHadoopLookahead)
	for i := 0; i < greenHadoopLookahead; i++ {
		at := c.Now() + float64(i)*iv
		greenSupply += k * c.GreenFractionAt(at) * iv
		if greenSupply >= outstanding {
			green = float64(i + 1)
			break
		}
	}
	window := theta*green + (1-theta)*brown
	if window < 1 {
		window = 1
	}
	// Deadline-driven brown rate: the uniform number of executors that
	// finishes all outstanding work by the end of the blended window.
	// All currently available green capacity is used on top of it, so
	// solar hours run wide and dark hours still meet the deadline.
	brownRate := outstanding / (window * iv)
	budget := int(math.Ceil(k*c.GreenFraction() + brownRate))
	if budget < 1 {
		budget = 1 // continuous progress, like CAP's floor
	}
	if budget > c.K() {
		budget = c.K()
	}
	return budget
}

// Pick implements sim.Scheduler: FIFO dispatch inside the green/brown
// executor budget.
//
//pcaps:hotpath
func (g *GreenHadoop) Pick(c *sim.Cluster) sim.Decision {
	budget := g.executorBudget(c)
	headroom := budget - c.BusyCount()
	if headroom <= 0 {
		return sim.DeferDecision
	}
	d := g.fifo.Pick(c)
	if d.Defer {
		return d
	}
	d.MaxNew = headroom
	return d
}
