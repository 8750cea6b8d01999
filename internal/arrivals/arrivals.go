// Package arrivals turns job arrivals into a first-class scenario
// dimension: deterministic, seed-driven open-loop arrival processes
// that the workload generator consumes one interarrival gap at a time.
//
// Six kinds are provided: the paper's batch-Poisson process (the
// historical batch draw order, byte-identical), constant-RPS,
// a linear RPS ramp, periodic bursts over a base rate, a diurnal
// sinusoid, and replay of an explicit schedule (the CSV format tracegen
// emits and ReadCSV decodes). The time-varying kinds are
// non-homogeneous Poisson processes sampled by Ogata thinning against
// the rate envelope, so every draw comes from the caller's seeded RNG
// and a schedule is a pure function of (Spec, seed) — the determinism
// contract every experiment artifact builds on (DESIGN.md §9).
//
// All rates are in jobs per second of experiment time (one real minute
// is one grid hour, per the paper's scaling).
package arrivals

import (
	"fmt"
	"math"
	"math/rand"
)

// Process kinds, the values Spec.Kind takes.
const (
	KindPoisson  = "poisson"
	KindConstant = "constant"
	KindRamp     = "ramp"
	KindBurst    = "burst"
	KindDiurnal  = "diurnal"
	KindCSV      = "csv"
)

// MaxDurationSec bounds every duration a spec gives in seconds of
// experiment time: an arrival process's mean gap, period, burst and
// explicit arrival times, and the gap 1/rate a rate implies (the
// scenario layer applies it to its own duration knobs too). 1e9 s is
// about 32 years, far above the 3-year carbon traces; a longer span
// describes no workload and overflows a run's arithmetic to NaN.
const MaxDurationSec = 1e9

// Kinds lists the process kinds in canonical order (error messages,
// validation sets).
func Kinds() []string {
	return []string{KindPoisson, KindConstant, KindRamp, KindBurst, KindDiurnal, KindCSV}
}

// Spec is the serializable description of one arrival process. Exactly
// the fields of the selected Kind apply; Validate rejects everything
// else with an error naming the offending field.
type Spec struct {
	// Kind selects the process: poisson, constant, ramp, burst,
	// diurnal, or csv.
	Kind string
	// MeanSec is the Poisson process's mean interarrival gap in seconds
	// (the paper's default is 30).
	MeanSec float64
	// RPS is the base arrival rate in jobs/second: the constant kind's
	// rate, the ramp's starting rate, the burst kind's off-burst rate,
	// and the diurnal trough.
	RPS float64
	// PeakRPS is the high rate: the ramp's final rate, the rate inside
	// a burst, and the diurnal peak.
	PeakRPS float64
	// PeriodSec is the shape's time scale: the ramp's rise time (the
	// rate holds at PeakRPS after), and the burst/diurnal cycle length.
	PeriodSec float64
	// BurstSec is the burst kind's spike duration at the start of each
	// period; it must be shorter than PeriodSec.
	BurstSec float64
	// Times is the csv kind's explicit schedule: absolute arrival
	// seconds, non-decreasing, Times[0] is job 0.
	Times []float64
	// Classes optionally names a job class per csv arrival (parallel to
	// Times); empty means the schedule carries no class assignment.
	Classes []string
}

// FieldError reports a Spec validation failure naming the offending
// field relative to the spec ("kind", "rps", "times[3]", ...), so
// callers can relocate it under their own path the way the scenario
// layer relocates sched.ParamError.
type FieldError struct {
	Field string
	Msg   string
}

// Error implements error.
func (e *FieldError) Error() string { return fmt.Sprintf("arrivals: %s: %s", e.Field, e.Msg) }

func fieldErr(field, format string, args ...any) error {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// need reports a missing required field; reject reports one that does
// not apply to the spec's kind (a silently ignored knob would make two
// different specs produce identical schedules).
func (s Spec) need(ok bool, field, what string) error {
	if !ok {
		return fieldErr(field, "%s kind needs %s", s.Kind, what)
	}
	return nil
}

func (s Spec) reject(zero bool, field string) error {
	if !zero {
		return fieldErr(field, "field does not apply to the %s kind", s.Kind)
	}
	return nil
}

// Validate checks the spec; errors are *FieldError values naming the
// offending field.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindPoisson, KindConstant, KindRamp, KindBurst, KindDiurnal, KindCSV:
	case "":
		return fieldErr("kind", "missing arrival kind (have %v)", Kinds())
	default:
		return fieldErr("kind", "unknown arrival kind %q (have %v)", s.Kind, Kinds())
	}
	if s.MeanSec < 0 || math.IsNaN(s.MeanSec) || math.IsInf(s.MeanSec, 0) {
		return fieldErr("mean_sec", "mean interarrival %v is not a positive duration", s.MeanSec)
	}
	if s.MeanSec > MaxDurationSec {
		return fieldErr("mean_sec", "mean interarrival %v s exceeds the ceiling of %v s", s.MeanSec, MaxDurationSec)
	}
	for _, f := range []struct {
		name string
		v    float64
		rate bool
	}{{"rps", s.RPS, true}, {"peak_rps", s.PeakRPS, true}, {"period_sec", s.PeriodSec, false}, {"burst_sec", s.BurstSec, false}} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fieldErr(f.name, "%v is not a non-negative finite number", f.v)
		}
		if f.rate && f.v > 0 && f.v < 1/MaxDurationSec {
			return fieldErr(f.name, "rate %v implies gaps over the ceiling of %v s", f.v, MaxDurationSec)
		}
		if !f.rate && f.v > MaxDurationSec {
			return fieldErr(f.name, "%v s exceeds the ceiling of %v s", f.v, MaxDurationSec)
		}
	}
	switch s.Kind {
	case KindPoisson:
		if err := s.reject(s.RPS == 0, "rps"); err != nil {
			return err
		}
		if err := s.reject(s.PeakRPS == 0, "peak_rps"); err != nil {
			return err
		}
		if err := s.reject(s.PeriodSec == 0, "period_sec"); err != nil {
			return err
		}
		if err := s.reject(s.BurstSec == 0, "burst_sec"); err != nil {
			return err
		}
	case KindConstant:
		if err := s.need(s.RPS > 0, "rps", "a positive rate"); err != nil {
			return err
		}
		if err := s.reject(s.MeanSec == 0, "mean_sec"); err != nil {
			return err
		}
		if err := s.reject(s.PeakRPS == 0, "peak_rps"); err != nil {
			return err
		}
		if err := s.reject(s.PeriodSec == 0, "period_sec"); err != nil {
			return err
		}
		if err := s.reject(s.BurstSec == 0, "burst_sec"); err != nil {
			return err
		}
	case KindRamp, KindBurst, KindDiurnal:
		if err := s.need(s.RPS > 0, "rps", "a positive base rate"); err != nil {
			return err
		}
		if err := s.need(s.PeakRPS > 0, "peak_rps", "a positive peak rate"); err != nil {
			return err
		}
		if s.PeakRPS < s.RPS {
			return fieldErr("peak_rps", "peak rate %v below base rate %v", s.PeakRPS, s.RPS)
		}
		if err := s.need(s.PeriodSec > 0, "period_sec", "a positive period"); err != nil {
			return err
		}
		if err := s.reject(s.MeanSec == 0, "mean_sec"); err != nil {
			return err
		}
		if s.Kind == KindBurst {
			if err := s.need(s.BurstSec > 0, "burst_sec", "a positive burst duration"); err != nil {
				return err
			}
			if s.BurstSec >= s.PeriodSec {
				return fieldErr("burst_sec", "burst %vs must be shorter than the period %vs", s.BurstSec, s.PeriodSec)
			}
		} else if err := s.reject(s.BurstSec == 0, "burst_sec"); err != nil {
			return err
		}
	case KindCSV:
		if len(s.Times) == 0 {
			return fieldErr("times", "csv kind needs an explicit schedule")
		}
		if err := s.reject(s.MeanSec == 0, "mean_sec"); err != nil {
			return err
		}
		if err := s.reject(s.RPS == 0, "rps"); err != nil {
			return err
		}
		if err := s.reject(s.PeakRPS == 0, "peak_rps"); err != nil {
			return err
		}
		if err := s.reject(s.PeriodSec == 0, "period_sec"); err != nil {
			return err
		}
		if err := s.reject(s.BurstSec == 0, "burst_sec"); err != nil {
			return err
		}
		prev := math.Inf(-1)
		for i, t := range s.Times {
			if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 || t > MaxDurationSec {
				return fieldErr(fmt.Sprintf("times[%d]", i), "arrival time %v is not a second in [0, %v]", t, MaxDurationSec)
			}
			if t < prev {
				return fieldErr(fmt.Sprintf("times[%d]", i), "arrival times must be non-decreasing (%v after %v)", t, prev)
			}
			prev = t
		}
		if len(s.Classes) != 0 && len(s.Classes) != len(s.Times) {
			return fieldErr("classes", "%d class labels for %d arrival times", len(s.Classes), len(s.Times))
		}
	}
	if len(s.Classes) > 0 && s.Kind != KindCSV {
		return fieldErr("classes", "per-arrival class labels apply to the csv kind only")
	}
	return nil
}

// Process generates the interarrival gaps of one open-loop schedule.
// Implementations are stateless and safe for concurrent use: a gap is a
// pure function of (i, now, r), with every stochastic draw coming from
// the caller's seeded RNG — the workload generator's batch stream, so
// the Poisson kind reproduces the historical batch draw interleaving
// byte-for-byte.
type Process interface {
	// Gap returns the gap in seconds between job i (which arrived at
	// time now) and job i+1, drawing randomness from r.
	Gap(i int, now float64, r *rand.Rand) float64
}

// New builds the process a validated spec describes. The spec is
// validated first, so New is safe to call on user input.
func New(s Spec) (Process, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindPoisson:
		mean := s.MeanSec
		if mean == 0 {
			mean = DefaultPoissonMeanSec
		}
		return Poisson{MeanSec: mean}, nil
	case KindConstant:
		return constant{rps: s.RPS}, nil
	case KindRamp:
		return &rateProcess{kind: KindRamp, peak: s.PeakRPS,
			base: s.RPS, amp: s.PeakRPS - s.RPS, period: s.PeriodSec}, nil
	case KindBurst:
		return &rateProcess{kind: KindBurst, peak: s.PeakRPS,
			base: s.RPS, amp: s.PeakRPS - s.RPS, period: s.PeriodSec, burst: s.BurstSec}, nil
	case KindDiurnal:
		return &rateProcess{kind: KindDiurnal, peak: s.PeakRPS,
			base: s.RPS, amp: s.PeakRPS - s.RPS, period: s.PeriodSec}, nil
	case KindCSV:
		return Schedule{Times: s.Times, Classes: s.Classes}, nil
	}
	return nil, fieldErr("kind", "unknown arrival kind %q", s.Kind) // unreachable after Validate
}

// DefaultPoissonMeanSec is the paper's Poisson interarrival mean (§6.1).
const DefaultPoissonMeanSec = 30

// Poisson is the paper's batch arrival shape: exponential gaps with the
// given mean: one r.ExpFloat64 draw after each job, the exact draw the
// paper's batches have always made, so batches built through it are
// byte-identical to the historical ones.
type Poisson struct {
	// MeanSec is the mean interarrival gap in seconds.
	MeanSec float64
}

// Gap implements Process.
//
//pcaps:hotpath called once per generated job in every batch draw
func (p Poisson) Gap(i int, now float64, r *rand.Rand) float64 {
	return r.ExpFloat64() * p.MeanSec
}

// constant is a fixed-spacing deterministic schedule at 1/rps seconds
// per job; it draws nothing from r.
type constant struct{ rps float64 }

//pcaps:hotpath called once per generated job in every batch draw
func (c constant) Gap(i int, now float64, r *rand.Rand) float64 { return 1 / c.rps }

// rateProcess samples a non-homogeneous Poisson process with rate λ(t)
// by Ogata thinning against the peak-rate envelope: candidate gaps are
// exponential at the peak rate and survive with probability λ(t)/peak.
// Thinning is exact for any bounded λ and keeps every draw on the
// caller's RNG, so the schedule is deterministic under a seed.
type rateProcess struct {
	kind   string
	peak   float64 // envelope rate, = base+amp
	base   float64 // off-peak rate
	amp    float64 // peak − base
	period float64
	burst  float64 // burst duration (burst kind only)
}

// rate evaluates λ(t) for the shape.
//
//pcaps:hotpath evaluated once per thinning candidate in every batch draw
func (p *rateProcess) rate(t float64) float64 {
	switch p.kind {
	case KindRamp:
		if t >= p.period {
			return p.peak
		}
		return p.base + p.amp*t/p.period
	case KindBurst:
		if math.Mod(t, p.period) < p.burst {
			return p.peak
		}
		return p.base
	default: // diurnal: trough at t=0, peak at period/2
		return p.base + p.amp*(1-math.Cos(2*math.Pi*t/p.period))/2
	}
}

// Gap implements Process.
//
//pcaps:hotpath called once per generated job in every batch draw
func (p *rateProcess) Gap(i int, now float64, r *rand.Rand) float64 {
	t := now
	for {
		t += r.ExpFloat64() / p.peak
		// Accept with probability λ(t)/peak; λ ≤ peak by construction.
		if r.Float64()*p.peak <= p.rate(t) {
			return t - now
		}
	}
}

// Schedule replays an explicit arrival-time list (the csv kind): job i
// arrives at Times[i], with an optional class label per arrival. It
// draws nothing from r.
type Schedule struct {
	// Times are absolute arrival seconds, non-decreasing.
	Times []float64
	// Classes optionally labels each arrival's job class (empty or
	// parallel to Times).
	Classes []string
}

// Gap implements Process.
//
//pcaps:hotpath called once per generated job in every batch draw
func (s Schedule) Gap(i int, now float64, r *rand.Rand) float64 {
	if i+1 >= len(s.Times) {
		return 0 // beyond the schedule; Generate rejects such batches up front
	}
	return s.Times[i+1] - s.Times[i]
}

// Len is the number of arrivals the schedule covers.
func (s Schedule) Len() int { return len(s.Times) }

// Start is the first arrival's absolute time. Open-ended processes start
// at time 0, the historical batch convention.
func (s Schedule) Start() float64 { return s.Times[0] }

// ClassAt returns arrival i's class label, or "" when it carries none.
func (s Schedule) ClassAt(i int) string {
	if i < 0 || i >= len(s.Classes) {
		return ""
	}
	return s.Classes[i]
}
