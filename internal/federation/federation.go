// Package federation simulates a geographically distributed deployment:
// K member clusters, each with its own carbon-intensity trace (typically
// a different power grid's), with a job router in front. Jobs
// arrive at the federation, a routing policy assigns each to one cluster
// at its arrival instant, and the per-cluster scheduler (FIFO, CAP,
// PCAPS, ...) takes over from there — routing composes with, and happens
// strictly before, per-cluster scheduling, mirroring how a global load
// balancer sits in front of independent regional control planes.
//
// The paper evaluates its schedulers against one grid at a time; its own
// motivation — carbon intensity varies hugely across regions and hours —
// points at cross-region placement as the next lever. This package opens
// that scenario family on top of the existing substrates: carbon.Trace
// supplies each region's signal and its (L, U) routing bounds, and
// internal/sim runs each member cluster unchanged.
//
// A router sees only the carbon signals the paper's decisions read: per
// member, the intensity of that member's own trace (Config.Trace, the
// trace its simulation charges carbon against) at the job's arrival, and
// that trace's bounds (L, U) over the job's estimated span on the
// member, which the paper treats as an exact forecast (§6.1). It returns
// one member index. Run then simulates each member over its share and
// folds the federation summary (total carbon, the slowest member's
// completion time, mean JCT) itself.
//
// Determinism rules (see DESIGN.md "Federation layer"): routing is a
// serial fold over jobs in arrival order, router state is reset at the
// start of every run, and each member cluster derives its scheduler seed
// from the federation seed and the cluster's name — so a federation run
// is a pure function of (jobs, specs, router, seed) and experiment cells
// can fan out over workers without changing results.
package federation

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pcaps/internal/dag"
	"pcaps/internal/metrics"
	"pcaps/internal/seed"
	"pcaps/internal/sim"
)

// ClusterSpec describes one member cluster of the federation.
type ClusterSpec struct {
	// Name labels the cluster in errors and derives its seed.
	Name string
	// Config is the member cluster's engine configuration, used as
	// given. Its Trace is the cluster's carbon-intensity signal: the
	// router reads it at each arrival and the member simulation charges
	// carbon against it.
	Config sim.Config
	// NewScheduler builds the member cluster's scheduler. A fresh
	// instance is built per run, seeded from the federation seed and the
	// cluster's name, because scheduler instances carry per-run scratch.
	NewScheduler func(seed int64) sim.Scheduler
}

// ClusterState is the carbon signal a router sees of one member cluster
// for one job, read from the member's own trace.
type ClusterState struct {
	// Intensity is the trace's carbon intensity at the job's arrival.
	Intensity float64
	// Low and High are the trace's bounds over the job's estimated span
	// on this cluster, max(critical path, work / effective parallelism).
	Low, High float64
}

// Router assigns each arriving job to a member cluster. Implementations
// may keep state across Route calls (round-robin counters, hysteresis
// anchors); Reset is invoked at the start of every federation run so one
// router instance yields identical assignments on identical inputs.
type Router interface {
	Name() string
	Reset()
	// Route returns the index of the chosen cluster in [0, len(clusters)).
	// The clusters slice is owned by the federation engine and only valid
	// for the duration of the call.
	Route(clusters []ClusterState) int
}

// Federation wires clusters and a router together.
type Federation struct {
	Clusters []ClusterSpec
	Router   Router
	// Seed drives the per-cluster scheduler construction
	// (domain-separated per cluster).
	Seed int64
}

// Result summarizes one federation run.
type Result struct {
	// Assignments maps each input job (by position) to the index of the
	// cluster it was routed to.
	Assignments []int
	// Summary is the federated carbon and completion account.
	Summary metrics.FederationSummary
}

// clusterSeed derives a member cluster's scheduler seed from the
// federation seed and the cluster's identity, domain-separated through
// the same recipe the experiment engine uses for cell seeds — so adding
// or reordering sibling clusters never perturbs an unrelated member.
func clusterSeed(base int64, name string, index int) int64 {
	return seed.Derive(base, "federation/"+name, int64(index))
}

func (f *Federation) validate() error {
	if len(f.Clusters) == 0 {
		return errors.New("federation: no clusters")
	}
	if f.Router == nil {
		return errors.New("federation: no router")
	}
	for i, c := range f.Clusters {
		if c.Config.Trace == nil {
			return fmt.Errorf("federation: cluster %d (%s) has no trace", i, c.Name)
		}
		if c.NewScheduler == nil {
			return fmt.Errorf("federation: cluster %d (%s) has no scheduler factory", i, c.Name)
		}
		if c.Config.NumExecutors < 1 {
			return fmt.Errorf("federation: cluster %d (%s) has no executors", i, c.Name)
		}
	}
	return nil
}

// effectiveParallelism is the per-job executor bound used for span
// estimates: the per-job cap when configured, the cluster size otherwise.
func effectiveParallelism(cfg sim.Config) int {
	k := cfg.NumExecutors
	if cfg.PerJobCap > 0 && cfg.PerJobCap < k {
		k = cfg.PerJobCap
	}
	return k
}

// Run routes the jobs, simulates every member cluster over its share,
// and folds the federation summary. Jobs are routed in arrival order
// (ties broken by input position); each member cluster then runs the
// engine over its share with its Config as given and a scheduler built
// from a derived seed. Input jobs are only read, so the same batch can
// be fed to several routers for comparison.
func (f *Federation) Run(jobs []*dag.Job) (*Result, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, errors.New("federation: no jobs")
	}
	// Route in arrival order, ties broken by input position, so the
	// router observes the same sequence a live admission point would.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Arrival < jobs[order[b]].Arrival
	})

	f.Router.Reset()
	assignments := make([]int, len(jobs))
	shares := make([][]*dag.Job, len(f.Clusters))
	states := make([]ClusterState, len(f.Clusters))
	for _, ji := range order {
		j := jobs[ji]
		work, cp := j.TotalWork(), j.CriticalPathLength()
		for ci, spec := range f.Clusters {
			tr := spec.Config.Trace
			span := math.Max(cp, work/float64(effectiveParallelism(spec.Config)))
			if span <= 0 {
				span = tr.Interval
			}
			lo, hi := tr.Bounds(j.Arrival, span)
			states[ci] = ClusterState{Intensity: tr.At(j.Arrival), Low: lo, High: hi}
		}
		idx := f.Router.Route(states)
		if idx < 0 || idx >= len(f.Clusters) {
			return nil, fmt.Errorf("federation: router %s returned cluster %d of %d",
				f.Router.Name(), idx, len(f.Clusters))
		}
		assignments[ji] = idx
		shares[idx] = append(shares[idx], j)
	}

	// Simulate every member cluster over its share, folding the summary
	// in spec order: carbon adds up, the slowest member sets the
	// makespan (clusters run in parallel), and every routed job's JCT
	// counts once. A dark member (no jobs routed) runs nothing and adds
	// nothing.
	var sum metrics.FederationSummary
	var sumJCT float64
	for ci, spec := range f.Clusters {
		if len(shares[ci]) == 0 {
			continue
		}
		res, err := sim.Run(spec.Config, shares[ci], spec.NewScheduler(clusterSeed(f.Seed, spec.Name, ci)))
		if err != nil {
			return nil, fmt.Errorf("federation: cluster %s: %w", spec.Name, err)
		}
		sum.CarbonGrams += res.CarbonGrams
		if res.ECT > sum.Makespan {
			sum.Makespan = res.ECT
		}
		for _, jct := range res.JCTs {
			sumJCT += jct
		}
	}
	sum.AvgJCT = sumJCT / float64(len(jobs))
	return &Result{Assignments: assignments, Summary: sum}, nil
}
