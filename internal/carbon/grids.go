package carbon

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// GridSpec parameterizes a synthetic grid generator. Target statistics are
// taken from Table 1 of the paper; shape parameters encode the qualitative
// descriptions in §6.1 (e.g. CAISO's solar-driven nighttime peaks, ZA's
// coal-dominated flatness).
type GridSpec struct {
	// Name is the grid code ("PJM", "CAISO", "ON", "DE", "NSW", "ZA").
	Name string
	// Min, Max, Mean are the target gCO2eq/kWh statistics from Table 1.
	Min, Max, Mean float64
	// CoeffVar is the target coefficient of variation from Table 1.
	CoeffVar float64
	// DiurnalShare, SeasonalShare, NoiseShare partition the target
	// variance between a 24-hour cycle, an annual cycle, and AR(1) noise.
	// They should sum to approximately 1.
	DiurnalShare, SeasonalShare, NoiseShare float64
	// PeakHour is the hour of day (0-23) at which the diurnal component
	// peaks. Solar-heavy grids (CAISO) peak at night; demand-driven grids
	// peak in the evening.
	PeakHour float64
	// NoisePersistence is the AR(1) coefficient for the noise component.
	NoisePersistence float64
}

// Grids returns the six grid specifications used throughout the paper's
// evaluation, in the order of Table 1.
func Grids() []GridSpec {
	return []GridSpec{
		{Name: "PJM", Min: 293, Max: 567, Mean: 425, CoeffVar: 0.110,
			DiurnalShare: 0.55, SeasonalShare: 0.15, NoiseShare: 0.30, PeakHour: 19, NoisePersistence: 0.85},
		{Name: "CAISO", Min: 83, Max: 451, Mean: 274, CoeffVar: 0.309,
			DiurnalShare: 0.70, SeasonalShare: 0.10, NoiseShare: 0.20, PeakHour: 2, NoisePersistence: 0.80},
		{Name: "ON", Min: 12, Max: 179, Mean: 50, CoeffVar: 0.654,
			DiurnalShare: 0.45, SeasonalShare: 0.15, NoiseShare: 0.40, PeakHour: 18, NoisePersistence: 0.90},
		{Name: "DE", Min: 130, Max: 765, Mean: 440, CoeffVar: 0.280,
			DiurnalShare: 0.55, SeasonalShare: 0.20, NoiseShare: 0.25, PeakHour: 20, NoisePersistence: 0.88},
		{Name: "NSW", Min: 267, Max: 817, Mean: 647, CoeffVar: 0.143,
			DiurnalShare: 0.60, SeasonalShare: 0.15, NoiseShare: 0.25, PeakHour: 1, NoisePersistence: 0.85},
		{Name: "ZA", Min: 586, Max: 785, Mean: 713, CoeffVar: 0.046,
			DiurnalShare: 0.50, SeasonalShare: 0.20, NoiseShare: 0.30, PeakHour: 19, NoisePersistence: 0.80},
	}
}

// GridByName returns the spec with the given name.
func GridByName(name string) (GridSpec, error) {
	for _, g := range Grids() {
		if g.Name == name {
			return g, nil
		}
	}
	return GridSpec{}, fmt.Errorf("carbon: unknown grid %q", name)
}

// PaperHours is the sample count of the paper's traces: three years of
// hourly data, 26,304 points (Table 1).
const PaperHours = 26304

// Synthesize generates a trace of the given number of hourly samples for
// the spec, deterministic in seed. Interval is the experiment-time seconds
// per sample (60 under the paper's 1-min-real = 1-h-grid scaling).
//
// The generator superposes a diurnal sinusoid, an annual sinusoid, and
// AR(1) noise, with amplitudes chosen so the variance matches the target
// coefficient of variation, then rescales the empirical distribution to hit
// the target min/max/mean exactly. The resulting trace reproduces Table 1
// statistics while exhibiting the day/night structure that carbon-aware
// deferral exploits.
func Synthesize(spec GridSpec, hours int, interval float64, seed int64) *Trace {
	if hours <= 0 {
		hours = PaperHours
	}
	if interval <= 0 {
		interval = 60
	}
	r := rand.New(rand.NewSource(seed))
	targetVar := spec.CoeffVar * spec.Mean * spec.CoeffVar * spec.Mean
	ampD := math.Sqrt(2 * spec.DiurnalShare * targetVar)
	ampS := math.Sqrt(2 * spec.SeasonalShare * targetVar)
	rho := spec.NoisePersistence
	sigma := math.Sqrt(spec.NoiseShare * targetVar * (1 - rho*rho))

	vals := make([]float64, hours)
	noise := 0.0
	for h := 0; h < hours; h++ {
		hour := float64(h % 24)
		day := float64(h) / 24
		diurnal := ampD * math.Cos(2*math.Pi*(hour-spec.PeakHour)/24)
		seasonal := ampS * math.Cos(2*math.Pi*day/365.25)
		noise = rho*noise + r.NormFloat64()*sigma
		vals[h] = spec.Mean + diurnal + seasonal + noise
	}
	rescale(vals, spec)
	t, err := New(spec.Name, interval, vals)
	if err != nil {
		panic(err) // unreachable: rescale guarantees finite non-negative values
	}
	return t
}

// rescale maps the empirical distribution of vals onto [spec.Min, spec.Max]
// with mean spec.Mean. Values are first normalized to their empirical range
// and then passed through a power transform f ↦ f^p before linear mapping to
// [Min, Max]; the exponent p is found by bisection so that the resulting
// mean matches spec.Mean. The transform is monotone, so temporal ordering
// (which hours are cheap vs expensive) is preserved, and it reproduces the
// right-skew of grids like ON whose mean sits near the minimum.
func rescale(vals []float64, spec GridSpec) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi <= lo {
		for i := range vals {
			vals[i] = spec.Mean
		}
		return
	}
	norm := make([]float64, len(vals))
	for i, v := range vals {
		norm[i] = (v - lo) / (hi - lo)
	}
	meanWith := func(p float64) float64 {
		var sum float64
		for _, f := range norm {
			sum += spec.Min + math.Pow(f, p)*(spec.Max-spec.Min)
		}
		return sum / float64(len(norm))
	}
	// meanWith is strictly decreasing in p; bisect on log-scale.
	pLo, pHi := 1.0/64, 64.0
	for meanWith(pLo) < spec.Mean && pLo > 1e-6 {
		pLo /= 2
	}
	for meanWith(pHi) > spec.Mean && pHi < 1e6 {
		pHi *= 2
	}
	for i := 0; i < 60; i++ {
		mid := math.Sqrt(pLo * pHi)
		if meanWith(mid) > spec.Mean {
			pLo = mid
		} else {
			pHi = mid
		}
	}
	p := math.Sqrt(pLo * pHi)
	for i, f := range norm {
		vals[i] = spec.Min + math.Pow(f, p)*(spec.Max-spec.Min)
	}
}

// SynthSeed derives one grid's synthesis seed from a run seed: the run
// seed offset by 1,000,003 × the grid's index in Table 1, so the grids
// of one run are mutually independent but individually reproducible. A
// name outside Table 1 keeps the run seed.
func SynthSeed(runSeed int64, grid string) int64 {
	for i, spec := range Grids() {
		if spec.Name == grid {
			return runSeed + int64(i)*1000003
		}
	}
	return runSeed
}

// SynthesizeAll generates one trace per paper grid with hours samples,
// each from its grid's SynthSeed.
func SynthesizeAll(hours int, interval float64, seed int64) map[string]*Trace {
	out := make(map[string]*Trace, 6)
	for _, spec := range Grids() {
		out[spec.Name] = Synthesize(spec, hours, interval, SynthSeed(seed, spec.Name))
	}
	return out
}

// SortedNames returns trace-map keys in Table 1 order for deterministic
// iteration in reports.
func SortedNames(traces map[string]*Trace) []string {
	order := map[string]int{"PJM": 0, "CAISO": 1, "ON": 2, "DE": 3, "NSW": 4, "ZA": 5}
	names := make([]string, 0, len(traces))
	for n := range traces {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		oi, iok := order[names[i]]
		oj, jok := order[names[j]]
		if iok && jok {
			return oi < oj
		}
		if iok != jok {
			return iok
		}
		return names[i] < names[j]
	})
	return names
}
