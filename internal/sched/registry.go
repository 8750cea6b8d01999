package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"

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
	// Kind names the registered policy.
	Kind string `json:"kind"`
	// B is CAP's minimum machine quota, at least 1 (nil: DefaultCAPB).
	B *int `json:"b,omitempty"`
	// Gamma is PCAPS's carbon-awareness knob in (0, 1]
	// (nil: DefaultPCAPSGamma).
	Gamma *float64 `json:"gamma,omitempty"`
	// Inner is the policy a wrapper kind wraps: any registered kind for
	// cap (default fifo), a probabilistic kind for pcaps (default
	// decima). Non-wrapper kinds take none.
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

// WrapKind declares how a registered policy consumes Spec.Inner.
type WrapKind int

const (
	// WrapsNone rejects any inner policy.
	WrapsNone WrapKind = iota
	// WrapsAny accepts any registered kind as the inner policy (CAP
	// gates an arbitrary carbon-agnostic scheduler).
	WrapsAny
	// WrapsProbabilistic accepts only kinds registered with a
	// Probabilistic constructor, and only their kind — parameters on
	// the inner spec are rejected (PCAPS interfaces with the Def. 4.1
	// class).
	WrapsProbabilistic
)

// Resolved carries a Spec's validated, default-applied parameters into
// an Entry's constructor.
type Resolved struct {
	// Seed is the run seed the factory was invoked with.
	Seed int64
	// B and Gamma hold the typed parameters for kinds that take them
	// (defaults already applied); zero otherwise.
	B     int
	Gamma float64
	// Inner is the compiled inner-policy factory (WrapsAny kinds).
	Inner Factory
	// Prob builds the inner probabilistic policy (WrapsProbabilistic
	// kinds).
	Prob func(seed int64) Probabilistic
}

// Entry describes one registered policy kind.
type Entry struct {
	// New constructs a fresh scheduler from resolved parameters.
	New func(p Resolved) sim.Scheduler
	// Probabilistic, when non-nil, marks the kind as a member of the
	// Def. 4.1 class PCAPS can wrap, and constructs that form.
	Probabilistic func(seed int64) Probabilistic
	// TakesB / TakesGamma admit the corresponding typed parameter.
	TakesB, TakesGamma bool
	// Wraps declares the inner-policy wiring.
	Wraps WrapKind
	// InnerDefault is the inner kind assumed when a wrapper spec omits
	// one.
	InnerDefault string
}

// Registry maps policy kinds to scheduler factories — the single table
// behind scenario policy compilation and the placement service. A
// Registry is immutable after construction (Register during setup,
// lookups afterwards), which is what makes the shared Default instance
// safe for concurrent use.
type Registry struct {
	entries map[string]Entry
	kinds   []string // registration order, for error messages and Kinds
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{entries: map[string]Entry{}} }

// Register adds one policy kind. Registration is setup-time wiring, so
// an empty kind, a nil constructor, or a duplicate is a programming
// error and panics.
func (r *Registry) Register(kind string, e Entry) {
	if kind == "" || e.New == nil {
		panic("sched: Register needs a kind and a constructor")
	}
	if _, dup := r.entries[kind]; dup {
		panic(fmt.Sprintf("sched: policy kind %q registered twice", kind))
	}
	r.entries[kind] = e
	r.kinds = append(r.kinds, kind)
}

// Kinds returns every registered kind in registration order.
func (r *Registry) Kinds() []string { return append([]string(nil), r.kinds...) }

// ProbabilisticKinds returns the kinds PCAPS-style wrappers may wrap,
// in registration order.
func (r *Registry) ProbabilisticKinds() []string {
	var out []string
	for _, k := range r.kinds {
		if r.entries[k].Probabilistic != nil {
			out = append(out, k)
		}
	}
	return out
}

// SweepParam returns the JSON name of the kind's sweepable numeric
// parameter ("b" or "gamma"), or "" when the kind has none.
func (r *Registry) SweepParam(kind string) string {
	e, ok := r.entries[kind]
	switch {
	case !ok:
		return ""
	case e.TakesB:
		return "b"
	case e.TakesGamma:
		return "gamma"
	}
	return ""
}

// Sweepable returns the kinds with a sweepable parameter, in
// registration order.
func (r *Registry) Sweepable() []string {
	var out []string
	for _, k := range r.kinds {
		if r.SweepParam(k) != "" {
			out = append(out, k)
		}
	}
	return out
}

// Check validates a spec without building anything. The returned error
// is a *ParamError naming the offending field.
func (r *Registry) Check(s Spec) error {
	_, err := r.New(s)
	return err
}

// New compiles a spec into a scheduler factory, applying the registry
// defaults to omitted parameters. Invalid specs return a *ParamError.
func (r *Registry) New(s Spec) (Factory, error) {
	e, err := r.lookup(s.Kind)
	if err != nil {
		return nil, err
	}
	var b int
	if s.B != nil {
		if !e.TakesB {
			return nil, &ParamError{"b", fmt.Sprintf("policy kind %q takes no CAP quota", s.Kind)}
		}
		if *s.B < 1 {
			// An explicit zero is not "take the default": omitting b
			// selects DefaultCAPB, writing 0 is an error.
			return nil, &ParamError{"b", fmt.Sprintf("CAP quota %d below 1 (omit b for the default %d)", *s.B, DefaultCAPB)}
		}
		b = *s.B
	} else if e.TakesB {
		b = DefaultCAPB
	}
	var gamma float64
	if s.Gamma != nil {
		if !e.TakesGamma {
			return nil, &ParamError{"gamma", fmt.Sprintf("policy kind %q takes no gamma", s.Kind)}
		}
		if *s.Gamma <= 0 || *s.Gamma > 1 {
			// γ=0 would be indistinguishable from "unset" under a plain
			// float; with the pointer it is representable and rejected.
			return nil, &ParamError{"gamma", fmt.Sprintf("gamma %v outside (0, 1] (omit gamma for the default %v)", *s.Gamma, DefaultPCAPSGamma)}
		}
		gamma = *s.Gamma
	} else if e.TakesGamma {
		gamma = DefaultPCAPSGamma
	}
	p := Resolved{B: b, Gamma: gamma}
	switch e.Wraps {
	case WrapsNone:
		if s.Inner != nil {
			return nil, &ParamError{"inner", fmt.Sprintf("policy kind %q takes no inner policy", s.Kind)}
		}
	case WrapsAny:
		innerSpec := Spec{Kind: e.InnerDefault}
		if s.Inner != nil {
			innerSpec = *s.Inner
		}
		inner, err := r.New(innerSpec)
		if err != nil {
			return nil, prefixField(err, "inner")
		}
		p.Inner = inner
	case WrapsProbabilistic:
		kind := e.InnerDefault
		if s.Inner != nil {
			kind = s.Inner.Kind
			// Only the inner kind is consumed; any other knob on it
			// would be silently dropped.
			if s.Inner.B != nil || s.Inner.Gamma != nil || s.Inner.Inner != nil {
				return nil, &ParamError{"inner", fmt.Sprintf("a %s inner policy takes only a kind", s.Kind)}
			}
		}
		ie, ok := r.entries[kind]
		if !ok || ie.Probabilistic == nil {
			return nil, &ParamError{"inner.kind", fmt.Sprintf("%s wraps a probabilistic policy (have %s), got %q",
				s.Kind, strings.Join(r.ProbabilisticKinds(), ", "), kind)}
		}
		p.Prob = ie.Probabilistic
	}
	build := e.New
	return func(seed int64) sim.Scheduler {
		p := p
		p.Seed = seed
		return build(p)
	}, nil
}

func (r *Registry) lookup(kind string) (Entry, error) {
	if kind == "" {
		return Entry{}, &ParamError{"kind", fmt.Sprintf("missing policy kind (have %s)", strings.Join(r.kinds, ", "))}
	}
	e, ok := r.entries[kind]
	if !ok {
		return Entry{}, &ParamError{"kind", fmt.Sprintf("unknown policy kind %q (have %s)", kind, strings.Join(r.kinds, ", "))}
	}
	return e, nil
}

// prefixField relocates a nested ParamError under the given field.
func prefixField(err error, field string) error {
	var pe *ParamError
	if errors.As(err, &pe) {
		return &ParamError{Field: field + "." + pe.Field, Msg: pe.Msg}
	}
	return err
}

var defaultRegistry struct {
	once sync.Once
	r    *Registry
}

// Default returns the shared registry of the paper's eight policies
// (§6.1): fifo, kube-default, weighted-fair, decima, uniformpb,
// greenhadoop, cap, pcaps. The instance is built once and never
// mutated, so concurrent New/Check calls need no locking.
func Default() *Registry {
	defaultRegistry.once.Do(func() {
		r := NewRegistry()
		r.Register("fifo", Entry{
			New: func(Resolved) sim.Scheduler { return &FIFO{} },
		})
		r.Register("kube-default", Entry{
			New: func(Resolved) sim.Scheduler { return NewKubeDefault() },
		})
		r.Register("weighted-fair", Entry{
			New: func(Resolved) sim.Scheduler { return &WeightedFair{} },
		})
		r.Register("decima", Entry{
			New:           func(p Resolved) sim.Scheduler { return NewDecima(p.Seed) },
			Probabilistic: func(seed int64) Probabilistic { return NewDecima(seed) },
		})
		// UniformPB deliberately ignores the seed, preserving the
		// historical scenario wiring (and its golden artifacts): the
		// uniform distribution's sampling order is immaterial to the
		// aggregate metrics the artifacts report.
		r.Register("uniformpb", Entry{
			New:           func(Resolved) sim.Scheduler { return &UniformPB{} },
			Probabilistic: func(int64) Probabilistic { return &UniformPB{} },
		})
		r.Register("greenhadoop", Entry{
			New: func(Resolved) sim.Scheduler { return NewGreenHadoop() },
		})
		r.Register("cap", Entry{
			New:          func(p Resolved) sim.Scheduler { return NewCAP(p.Inner(p.Seed), p.B) },
			TakesB:       true,
			Wraps:        WrapsAny,
			InnerDefault: "fifo",
		})
		r.Register("pcaps", Entry{
			New:          func(p Resolved) sim.Scheduler { return NewPCAPS(p.Prob(p.Seed), p.Gamma, p.Seed) },
			TakesGamma:   true,
			Wraps:        WrapsProbabilistic,
			InnerDefault: "decima",
		})
		defaultRegistry.r = r
	})
	return defaultRegistry.r
}
