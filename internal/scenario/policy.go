package scenario

import (
	"fmt"

	fed "pcaps/internal/federation"
	"pcaps/internal/sched"
)

// policyFactory builds one fresh scheduler per run, seeded with the
// cell's seed — scheduler instances carry per-run scratch and must not
// be shared across cells. It is the registry's factory type; the alias
// keeps the compile call sites readable.
type policyFactory = sched.Factory

// policyName resolves a policy's display label.
func policyName(p PolicySpec) string {
	if p.Name != "" {
		return p.Name
	}
	return p.Kind
}

// sched lowers the scenario shape (which adds a display name per node)
// to the registry's Spec.
func (p PolicySpec) sched() sched.Spec {
	s := sched.Spec{Kind: p.Kind, B: p.B, Gamma: p.Gamma}
	if p.Inner != nil {
		inner := p.Inner.sched()
		s.Inner = &inner
	}
	return s
}

// compilePolicy lowers a validated PolicySpec to a constructor through
// the policy registry — the one constructor the placement service
// builds from too, so defaults and inner wiring cannot drift between the
// two surfaces. The spec has passed Validate, so a rejection here is a
// programming error.
func compilePolicy(p PolicySpec) (policyFactory, error) {
	f, err := sched.Default().New(p.sched())
	if err != nil {
		return nil, fmt.Errorf("scenario: compiling policy %q: %w", policyName(p), err)
	}
	return f, nil
}

// bindSweepValue instantiates the sweep's policy template at one
// parameter value, bound to the parameter the registry's SweepParam
// names (cap → B, pcaps → γ).
func bindSweepValue(template PolicySpec, value float64) PolicySpec {
	switch sched.Default().SweepParam(template.Kind) {
	case "b":
		template.B = sched.Int(int(value))
	case "gamma":
		template.Gamma = sched.Float(value)
	}
	return template
}

// compileRouter lowers a RouterSpec to a fresh-router constructor
// (routers carry per-run state; the federation engine Resets them, but
// a new instance per run keeps cells independent under fan-out).
func compileRouter(r RouterSpec) (func() fed.Router, error) {
	switch r.Kind {
	case "round-robin":
		return func() fed.Router { return fed.NewRoundRobin() }, nil
	case "lowest-intensity":
		return func() fed.Router { return fed.NewLowestIntensity() }, nil
	case "forecast-aware":
		h := r.Hysteresis
		return func() fed.Router {
			fa := fed.NewForecastAware()
			if h != 0 {
				fa.Hysteresis = h
			}
			return fa
		}, nil
	}
	return nil, fmt.Errorf("scenario: unknown router kind %q", r.Kind)
}

// routerName resolves a router row's display label.
func routerName(r RouterSpec) string {
	if r.Name != "" {
		return r.Name
	}
	return "fed:" + r.Kind
}
