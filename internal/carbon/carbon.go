// Package carbon provides the time-varying carbon-intensity substrate the
// paper's schedulers consume: trace storage and lookup, short-term forecast
// bounds (the L and U of §2.1), grid statistics (Table 1), the local solar
// signal the GreenHadoop baseline schedules against, and synthetic generators
// calibrated to the six power grids of §6.1 (PJM, CAISO, ON, DE, NSW, ZA).
//
// Real deployments would read Electricity Maps or WattTime; this package is
// the substitution documented in DESIGN.md: schedulers only observe c(t)
// and the forecast bounds, so statistically calibrated synthetic traces
// preserve the decision problem. CSV loading is provided for real traces.
package carbon

import (
	"errors"
	"fmt"
	"math"
)

// Trace is a piecewise-constant carbon-intensity signal in gCO2eq/kWh.
// The value Values[i] holds on experiment time [i·Interval, (i+1)·Interval).
// The zero value is unusable; construct with New or a generator.
type Trace struct {
	// Grid names the power grid ("DE", "CAISO", ...).
	Grid string
	// Interval is the duration in experiment seconds covered by one
	// sample. The paper reports hourly data and scales one hour of grid
	// time to one minute of real time, so experiments use Interval = 60.
	Interval float64
	// Values are the carbon intensities, one per interval.
	Values []float64
}

// ErrEmptyTrace is returned when constructing or loading a trace with no samples.
var ErrEmptyTrace = errors.New("carbon: trace has no samples")

// New constructs a validated trace.
func New(grid string, interval float64, values []float64) (*Trace, error) {
	if len(values) == 0 {
		return nil, ErrEmptyTrace
	}
	if interval <= 0 {
		return nil, fmt.Errorf("carbon: non-positive interval %v", interval)
	}
	for i, v := range values {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("carbon: bad intensity %v at index %d", v, i)
		}
	}
	return &Trace{Grid: grid, Interval: interval, Values: values}, nil
}

// Duration returns the total experiment time covered by the trace.
func (t *Trace) Duration() float64 { return float64(len(t.Values)) * t.Interval }

// Index returns the sample index covering experiment time sec, clamped to
// the trace bounds (the last value persists past the end, the first before 0).
func (t *Trace) Index(sec float64) int {
	i := int(math.Floor(sec / t.Interval))
	if i < 0 {
		return 0
	}
	if i >= len(t.Values) {
		return len(t.Values) - 1
	}
	return i
}

// At returns the carbon intensity at experiment time sec.
func (t *Trace) At(sec float64) float64 { return t.Values[t.Index(sec)] }

// NextChange returns the experiment time of the first intensity boundary
// strictly after sec, or +Inf when the trace has been exhausted. Boundaries
// where the value does not actually change are still reported; schedulers
// treat every boundary as a scheduling event (Alg. 1 line 2).
func (t *Trace) NextChange(sec float64) float64 {
	i := int(math.Floor(sec/t.Interval)) + 1
	if i <= 0 {
		i = 1
	}
	if i >= len(t.Values) {
		return math.Inf(1)
	}
	return float64(i) * t.Interval
}

// Bounds returns the forecast lower and upper carbon bounds (L, U) over
// [fromSec, fromSec+horizonSec], the short-term forecast window the paper's
// threshold designs assume (§2.1; experiments use a 48-hour lookahead).
// Following the paper we treat the forecast as exact over the window.
func (t *Trace) Bounds(fromSec, horizonSec float64) (lo, hi float64) {
	i0 := t.Index(fromSec)
	i1 := t.Index(fromSec + horizonSec)
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := i0; i <= i1; i++ {
		v := t.Values[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Slice returns a view of the trace covering [fromSec, fromSec+durSec),
// clamped to the trace bounds. The underlying values are shared.
func (t *Trace) Slice(fromSec, durSec float64) *Trace {
	i0 := t.Index(fromSec)
	i1 := t.Index(fromSec+durSec-1e-9) + 1
	if i1 <= i0 {
		i1 = i0 + 1
	}
	return &Trace{Grid: t.Grid, Interval: t.Interval, Values: t.Values[i0:i1]}
}

// Stats summarizes a trace the way Table 1 does.
type Stats struct {
	Min, Max, Mean, Std, CoeffVar float64
	Samples                       int
}

// Stats computes Table 1-style summary statistics.
func (t *Trace) Stats() Stats {
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1), Samples: len(t.Values)}
	var sum float64
	for _, v := range t.Values {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(len(t.Values))
	var ss float64
	for _, v := range t.Values {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(t.Values)))
	if s.Mean > 0 {
		s.CoeffVar = s.Std / s.Mean
	}
	return s
}

// SolarFraction models the availability of a co-located solar array as a
// fraction of cluster capacity: a half-sine day curve peaking at solar
// noon, scaled by the grid's apparent renewable penetration (its
// coefficient of variation, capped at 1). GreenHadoop [24] schedules
// against exactly this kind of local "green energy" signal — which only
// partially aligns with the grid's carbon-intensity minima (§6.1: CAISO's
// lows are solar-driven midday, but DE's highs are in the evening). The
// misalignment is why GreenHadoop saves less carbon than price-style
// threshold policies despite deferring heavily (Table 3).
func (t *Trace) SolarFraction(sec float64) float64 {
	hour := math.Mod(sec/t.Interval, 24)
	if hour < 0 {
		hour += 24
	}
	day := math.Sin(math.Pi * (hour - 6) / 12) // sunrise 06:00, noon peak
	if day < 0 {
		return 0
	}
	// Apparent penetration from the local forecast window: grids whose
	// intensity swings widely have more intermittent (solar-like)
	// capacity to harvest.
	lo, hi := t.Bounds(sec-48*t.Interval, 96*t.Interval)
	pen := 0.1
	if hi > 0 {
		pen = math.Min(1, (hi-lo)/hi+0.1)
	}
	return pen * day
}
