package scenario

import (
	"context"
	"fmt"

	"pcaps/internal/carbonapi"
	"pcaps/internal/result"
)

// Service implements carbonapi.Scenarios: POST /v1/scenarios parses,
// validates, compiles, and runs one user-supplied spec. Every run is
// forced into fast mode, the same policy as the /v1/experiments
// service — the HTTP surface is for validation, smoke runs, and
// inspection; full-scale matrices stay behind pcapsim -scenario.
//
// Unlike experiments.Service there is no result cache: the spec space
// is unbounded, and a run is already seconds in fast mode. Service is
// safe for concurrent use — each Run compiles its own program and every
// stochastic choice derives from the spec's seed.
type Service struct {
	// Pool bounds each run's cell fan-out; nil runs serially.
	Pool *Pool
	// Traces overrides carbon-source resolution (tests); nil selects
	// the default Sources.
	Traces TraceProvider
	// AllowExternalSources permits "csv" and "carbonapi" cluster
	// sources. Off by default: a POSTed spec would otherwise read the
	// server's filesystem or make the server dial out on the
	// requester's behalf.
	AllowExternalSources bool
}

// Server-side scale ceilings. Fast mode shrinks the *defaults*, not
// explicitly requested sizes, so without these a small valid POST
// ({"hours": 5e8} or a million-job batch) would make the server
// synthesize gigabytes or simulate for hours on a requester's behalf.
// The ceilings are the paper's own full-scale settings — anything a
// built-in artifact needs fits; anything larger belongs in
// `pcapsim -scenario` on the requester's machine.
const (
	maxServiceHours    = 3 * 26304 // three paper trace lengths
	maxServiceJobs     = 500
	maxServiceTrials   = 10
	maxServiceValues   = 64 // sweep points
	maxServiceClusters = 24 // per topology, and topologies per spec
	maxServicePolicies = 32
	maxServiceRouters  = 16
	maxServiceSizes    = 8     // batch-size axis entries
	maxServiceExec     = 10000 // simulated executors per cluster (paper: 100)
)

// checkLimits rejects specs beyond the service ceilings, naming the
// field like every other validation error.
func checkLimits(spec *Spec) error {
	switch {
	case spec.Hours > maxServiceHours:
		return fieldErr("hours", "%d exceeds the service ceiling of %d", spec.Hours, maxServiceHours)
	case spec.Workload.Jobs > maxServiceJobs:
		return fieldErr("workload.jobs", "%d exceeds the service ceiling of %d", spec.Workload.Jobs, maxServiceJobs)
	case spec.Trials > maxServiceTrials:
		return fieldErr("trials", "%d exceeds the service ceiling of %d", spec.Trials, maxServiceTrials)
	case len(spec.Clusters) > maxServiceClusters:
		return fieldErr("clusters", "%d clusters exceed the service ceiling of %d", len(spec.Clusters), maxServiceClusters)
	case len(spec.Policies) > maxServicePolicies:
		return fieldErr("policies", "%d policies exceed the service ceiling of %d", len(spec.Policies), maxServicePolicies)
	}
	if e := spec.Engine; e != nil && e.Executors > maxServiceExec {
		return fieldErr("engine.executors", "%d exceeds the service ceiling of %d", e.Executors, maxServiceExec)
	}
	for i, c := range spec.Clusters {
		if c.Executors > maxServiceExec {
			return fieldErr(fmt.Sprintf("clusters[%d].executors", i), "%d exceeds the service ceiling of %d", c.Executors, maxServiceExec)
		}
	}
	if len(spec.Workload.Sizes) > maxServiceSizes {
		return fieldErr("workload.sizes", "%d batch sizes exceed the service ceiling of %d", len(spec.Workload.Sizes), maxServiceSizes)
	}
	for i, n := range spec.Workload.Sizes {
		if n > maxServiceJobs {
			return fieldErr(fmt.Sprintf("workload.sizes[%d]", i), "%d exceeds the service ceiling of %d", n, maxServiceJobs)
		}
	}
	if sw := spec.Sweep; sw != nil && len(sw.Values) > maxServiceValues {
		return fieldErr("sweep.values", "%d sweep points exceed the service ceiling of %d", len(sw.Values), maxServiceValues)
	}
	if f := spec.Federation; f != nil {
		if len(f.Routers) > maxServiceRouters {
			return fieldErr("federation.routers", "%d routers exceed the service ceiling of %d", len(f.Routers), maxServiceRouters)
		}
		if len(f.Topologies) > maxServiceClusters {
			return fieldErr("federation.topologies", "%d topologies exceed the service ceiling of %d", len(f.Topologies), maxServiceClusters)
		}
		for i, topo := range f.Topologies {
			if len(topo) > maxServiceClusters {
				return fieldErr(fmt.Sprintf("federation.topologies[%d]", i), "%d members exceed the service ceiling of %d", len(topo), maxServiceClusters)
			}
		}
	}
	return nil
}

// Run implements carbonapi.Scenarios.
func (s *Service) Run(ctx context.Context, raw []byte) (*result.Artifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec, err := Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", carbonapi.ErrInvalidScenario, err)
	}
	if !s.AllowExternalSources {
		for i, c := range spec.Clusters {
			if c.Source != "" && c.Source != "synth" {
				return nil, fmt.Errorf("%w: %w", carbonapi.ErrInvalidScenario,
					fieldErr(fmt.Sprintf("clusters[%d].source", i),
						"source %q is disabled on this server (synthesized grids only)", c.Source))
			}
		}
		// An arrivals schedule file would likewise read the server's
		// filesystem on the requester's behalf.
		if a := spec.Workload.Arrivals; a != nil && a.Kind == "csv" {
			return nil, fmt.Errorf("%w: %w", carbonapi.ErrInvalidScenario,
				fieldErr("workload.arrivals.kind",
					"csv schedules are disabled on this server (generated arrival kinds only)"))
		}
	}
	if err := checkLimits(spec); err != nil {
		return nil, fmt.Errorf("%w: %w", carbonapi.ErrInvalidScenario, err)
	}
	prog, err := Compile(*spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", carbonapi.ErrInvalidScenario, err)
	}
	return prog.Run(Env{Pool: s.Pool, Fast: true, Traces: s.Traces})
}
