// Package placement is the backend of carbonapi's POST /v1/placement:
// it exposes the paper's scheduling policies as a stateless decision
// service. A request carries a policy spec (resolved through the same
// sched registry the scenario compiler uses) and a serialized cluster
// snapshot (sim.Snapshot); the service restores the snapshot and runs
// one Pick per policy, returning the decision an embedded simulator
// would have made live — the inverse of wiring a simulator into a
// scheduler webhook, and the building block for driving real cluster
// schedulers (a Kubernetes extender, a load generator) from the
// paper's policies.
//
// Decisions are pure functions of (policy, seed, snapshot): restoring
// a snapshot shares nothing between requests, and the registry holds
// no state, so concurrent Place calls need no locking.
package placement

import (
	"context"
	"errors"
	"fmt"

	"pcaps/internal/carbonapi"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
)

// Service implements carbonapi.Placements over sched.Default().
type Service struct{}

// invalid marks a rejection the HTTP handler maps to a 400.
func invalid(format string, args ...any) error {
	return fmt.Errorf("%w: %s", carbonapi.ErrInvalidPlacement, fmt.Sprintf(format, args...))
}

// Place implements carbonapi.Placements: validate every policy spec,
// restore the snapshot once, and run one independent Pick per policy
// against it. Each policy gets a fresh scheduler instance seeded with
// the request seed; Place never mutates the restored scheduling state,
// so batch entries see identical cluster state.
func (s *Service) Place(ctx context.Context, req *carbonapi.PlacementRequest) ([]sim.Placement, error) {
	type named struct {
		field string
		spec  sched.Spec
	}
	var specs []named
	switch {
	case req.Policy != nil:
		specs = []named{{field: "policy", spec: *req.Policy}}
	case len(req.Policies) > 0:
		for i, p := range req.Policies {
			specs = append(specs, named{field: fmt.Sprintf("policies[%d]", i), spec: p})
		}
	default:
		return nil, invalid("policy: missing policy spec")
	}
	factories := make([]sched.Factory, len(specs))
	for i, n := range specs {
		f, err := sched.Default().New(n.spec)
		if err != nil {
			var pe *sched.ParamError
			if errors.As(err, &pe) {
				return nil, invalid("%s.%s: %s", n.field, pe.Field, pe.Msg)
			}
			return nil, invalid("%s: %v", n.field, err)
		}
		factories[i] = f
	}
	if req.Snapshot == nil {
		return nil, invalid("snapshot: missing cluster snapshot")
	}
	cluster, err := req.Snapshot.Restore()
	if err != nil {
		// Restore errors already name the field (snapshot.jobs[i]...).
		return nil, invalid("%v", err)
	}
	out := make([]sim.Placement, len(factories))
	for i, f := range factories {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = cluster.Place(f(req.Seed))
	}
	return out, nil
}
