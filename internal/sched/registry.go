package sched

import (
	"errors"
	"fmt"

	"pcaps/internal/sim"
)

// Defaults applied when a spec omits a policy parameter; the paper's
// mid-range settings (CAP B=20 as in Figs. 10/14, PCAPS γ=0.5). They
// live here, next to the registry, so every consumer — scenario specs,
// the placement service, direct API use — resolves the same values.
const (
	DefaultCAPB       = 20
	DefaultPCAPSGamma = 0.5
)

// kindList names the eight policy kinds in error messages, in the
// paper's order (§6.1).
const kindList = "fifo, kube-default, weighted-fair, decima, uniformpb, greenhadoop, cap, pcaps"

// Int returns a pointer to v, for Spec literals.
func Int(v int) *int { return &v }

// Float returns a pointer to v, for Spec literals.
func Float(v float64) *float64 { return &v }

// Spec names one policy and its typed parameters, in the shape shared by
// scenario documents and the placement API. B and Gamma are pointers so
// that "unset" (nil: take the registry default) is distinguishable from
// an explicit zero, which is rejected rather than silently rebound to
// the default.
type Spec struct {
	// Kind names one of the eight policies Default lists.
	Kind string `json:"kind"`
	// B is CAP's minimum machine quota, at least 1 (nil: DefaultCAPB).
	B *int `json:"b,omitempty"`
	// Gamma is PCAPS's carbon-awareness knob in (0, 1]
	// (nil: DefaultPCAPSGamma).
	Gamma *float64 `json:"gamma,omitempty"`
	// Inner is the policy a wrapper kind wraps: any kind for cap
	// (default fifo), a probabilistic kind for pcaps (default decima),
	// which takes only its kind. Non-wrapper kinds take none.
	Inner *Spec `json:"inner,omitempty"`
}

// Factory builds one fresh scheduler per run, seeded with the run's
// seed — scheduler instances carry per-run scratch and sampling state
// and must never be shared across concurrent runs.
type Factory func(seed int64) sim.Scheduler

// ParamError reports a Spec the registry rejected, naming the offending
// field by its JSON path relative to the spec ("kind", "b",
// "inner.kind", ...). Callers embedding specs in larger documents
// prepend their own prefix to Field.
type ParamError struct {
	Field string
	Msg   string
}

// Error implements error.
func (e *ParamError) Error() string { return e.Field + ": " + e.Msg }

// Registry compiles specs of the paper's eight policies (§6.1) into
// scheduler factories — the one constructor behind scenario policy
// compilation and the placement service. It holds no state, so
// concurrent New/Check calls need no locking.
type Registry struct{}

// Default returns the registry of the paper's eight policies: fifo,
// kube-default, weighted-fair, decima, uniformpb, greenhadoop, cap,
// pcaps.
func Default() Registry { return Registry{} }

// SweepParam returns the JSON name of the kind's sweepable numeric
// parameter ("b" for cap, "gamma" for pcaps), or "" when the kind has
// none.
func (Registry) SweepParam(kind string) string {
	switch kind {
	case "cap":
		return "b"
	case "pcaps":
		return "gamma"
	}
	return ""
}

// Check validates a spec without building anything. The returned error
// is a *ParamError naming the offending field.
func (r Registry) Check(s Spec) error {
	_, err := r.New(s)
	return err
}

// New compiles a spec into a scheduler factory, applying the defaults
// to omitted parameters. Invalid specs return a *ParamError; the fields
// are checked in the order kind, b, gamma, inner.
func (r Registry) New(s Spec) (Factory, error) {
	var f Factory
	switch s.Kind {
	case "fifo":
		f = func(int64) sim.Scheduler { return &FIFO{} }
	case "kube-default":
		f = func(int64) sim.Scheduler { return NewKubeDefault() }
	case "weighted-fair":
		f = func(int64) sim.Scheduler { return &WeightedFair{} }
	case "decima", "uniformpb":
		prob := probabilistic(s.Kind)
		f = func(seed int64) sim.Scheduler { return prob(seed) }
	case "greenhadoop":
		f = func(int64) sim.Scheduler { return NewGreenHadoop() }
	case "cap":
		b, _, err := params(s, true, false)
		if err != nil {
			return nil, err
		}
		inner := Spec{Kind: "fifo"}
		if s.Inner != nil {
			inner = *s.Inner
		}
		in, err := r.New(inner)
		if err != nil {
			return nil, prefixField(err, "inner")
		}
		return func(seed int64) sim.Scheduler { return NewCAP(in(seed), b) }, nil
	case "pcaps":
		_, gamma, err := params(s, false, true)
		if err != nil {
			return nil, err
		}
		kind := "decima"
		if s.Inner != nil {
			kind = s.Inner.Kind
			// Only the inner kind is consumed; any other knob on it
			// would be silently dropped.
			if s.Inner.B != nil || s.Inner.Gamma != nil || s.Inner.Inner != nil {
				return nil, &ParamError{"inner", fmt.Sprintf("a %s inner policy takes only a kind", s.Kind)}
			}
		}
		prob := probabilistic(kind)
		if prob == nil {
			return nil, &ParamError{"inner.kind", fmt.Sprintf("%s wraps a probabilistic policy (have decima, uniformpb), got %q", s.Kind, kind)}
		}
		return func(seed int64) sim.Scheduler { return NewPCAPS(prob(seed), gamma, seed) }, nil
	case "":
		return nil, &ParamError{"kind", "missing policy kind (have " + kindList + ")"}
	default:
		return nil, &ParamError{"kind", fmt.Sprintf("unknown policy kind %q (have %s)", s.Kind, kindList)}
	}
	if _, _, err := params(s, false, false); err != nil {
		return nil, err
	}
	if s.Inner != nil {
		return nil, &ParamError{"inner", fmt.Sprintf("policy kind %q takes no inner policy", s.Kind)}
	}
	return f, nil
}

// probabilistic returns the constructor of a member of the Def. 4.1
// class PCAPS can wrap, seeded with the run's seed, or nil when the kind
// is not one.
func probabilistic(kind string) func(seed int64) Probabilistic {
	switch kind {
	case "decima":
		return func(seed int64) Probabilistic { return NewDecima(seed) }
	case "uniformpb":
		return func(seed int64) Probabilistic { return &UniformPB{Seed: seed} }
	}
	return nil
}

// params checks the spec's typed parameters, b before gamma, against
// the ones its kind takes, and returns them with the defaults applied.
func params(s Spec, takesB, takesGamma bool) (b int, gamma float64, err error) {
	b, gamma = DefaultCAPB, DefaultPCAPSGamma
	if s.B != nil {
		if !takesB {
			return 0, 0, &ParamError{"b", fmt.Sprintf("policy kind %q takes no CAP quota", s.Kind)}
		}
		if *s.B < 1 {
			// An explicit zero is not "take the default": omitting b
			// selects DefaultCAPB, writing 0 is an error.
			return 0, 0, &ParamError{"b", fmt.Sprintf("CAP quota %d below 1 (omit b for the default %d)", *s.B, DefaultCAPB)}
		}
		b = *s.B
	}
	if s.Gamma != nil {
		if !takesGamma {
			return 0, 0, &ParamError{"gamma", fmt.Sprintf("policy kind %q takes no gamma", s.Kind)}
		}
		if *s.Gamma <= 0 || *s.Gamma > 1 {
			// γ=0 would be indistinguishable from "unset" under a plain
			// float; with the pointer it is representable and rejected.
			return 0, 0, &ParamError{"gamma", fmt.Sprintf("gamma %v outside (0, 1] (omit gamma for the default %v)", *s.Gamma, DefaultPCAPSGamma)}
		}
		gamma = *s.Gamma
	}
	return b, gamma, nil
}

// prefixField relocates a nested ParamError under the given field.
func prefixField(err error, field string) error {
	var pe *ParamError
	if errors.As(err, &pe) {
		return &ParamError{Field: field + "." + pe.Field, Msg: pe.Msg}
	}
	return err
}
