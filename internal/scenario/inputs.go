package scenario

import (
	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/dag"
)

// ResolvedCluster is one cluster's materialized carbon input.
type ResolvedCluster struct {
	// Name is the cluster/grid label.
	Name string
	// Grid is the power-grid identifier.
	Grid string
	// Trace is the full resolved carbon trace (the per-trial windows
	// the runs slice out of it derive from the cell seeds).
	Trace *carbon.Trace
	// SynthSeed is the seed a "synth" source was generated with
	// (carbon.SynthSeed of the run seed and the grid) — the value that
	// regenerates the trace via carbon.Synthesize or `tracegen -grid
	// NAME -seed SynthSeed`. Meaningless for csv/carbonapi sources.
	SynthSeed int64
}

// Inputs are a scenario's resolved, replayable inputs: every cluster's
// full carbon trace and the template job batch. `tracegen -scenario`
// serializes these as CSV for offline replay and external tooling.
type Inputs struct {
	// Clusters holds one entry per distinct cluster/grid the scenario
	// touches, in declaration order.
	Clusters []ResolvedCluster
	// Jobs is the template batch: the scenario's batch configuration
	// drawn at the spec seed. (Individual trials derive their batches
	// from per-cell seeds; the template documents the workload shape.)
	Jobs []*dag.Job
	// Mix, JobsN, Seed, and Hours echo the resolved batch/trace
	// configuration, for provenance headers.
	Mix   string
	JobsN int
	Seed  int64
	Hours int
	// Arrivals is the resolved arrival process (csv schedules loaded);
	// the paper's Poisson when the spec declares none.
	Arrivals arrivals.Spec
	// Classes echoes the resolved heterogeneous class set (nil for
	// homogeneous batches).
	Classes []ClassSpec
}

// Inputs resolves the program's carbon sources and template workload
// without running any simulation.
func (p *Program) Inputs(env Env) (out *Inputs, err error) {
	defer func() {
		// The batch generator fails fast through the pool's panic path
		// (a csv schedule shorter than the batch); surface it as an
		// error here the way Run does.
		if rec := recover(); rec != nil {
			se, ok := rec.(simError)
			if !ok {
				panic(rec)
			}
			out, err = nil, se.err
		}
	}()
	r, err := newRunEnv(p.spec, env)
	if err != nil {
		return nil, err
	}
	pl, err := r.plan()
	if err != nil {
		return nil, err
	}
	n := pl.sizes[0]
	out = &Inputs{
		Jobs:     r.batch(n, r.seed),
		Mix:      r.mix.String(),
		JobsN:    n,
		Seed:     r.seed,
		Hours:    r.hours,
		Arrivals: r.arr,
		Classes:  p.spec.Workload.Classes,
	}
	seen := map[string]bool{}
	for _, ms := range pl.sets {
		for _, m := range ms {
			if seen[m.key] {
				continue
			}
			seen[m.key] = true
			out.Clusters = append(out.Clusters, ResolvedCluster{
				Name: m.key, Grid: m.grid, Trace: m.trace,
				SynthSeed: carbon.SynthSeed(r.seed, m.grid),
			})
		}
	}
	return out, nil
}
