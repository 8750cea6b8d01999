package arrivals

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// drawTimes materializes the first n arrival times of a process under a
// fixed seed, the way workload.Generate does.
func drawTimes(t *testing.T, p Process, n int, seedVal int64) []float64 {
	t.Helper()
	r := rand.New(rand.NewSource(seedVal))
	now := 0.0
	if s, ok := p.(Schedule); ok {
		now = s.Start()
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, now)
		now += p.Gap(i, now, r)
	}
	return out
}

func TestPoissonMatchesLegacyDraw(t *testing.T) {
	// The Poisson kind must consume exactly one ExpFloat64 per gap —
	// the draw the paper's batches always made.
	p := Poisson{MeanSec: 30}
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		want := r1.ExpFloat64() * 30
		got := p.Gap(i, 0, r2)
		if got != want {
			t.Fatalf("gap %d: got %v, want %v", i, got, want)
		}
	}
}

func TestConstantSpacing(t *testing.T) {
	p, err := New(Spec{Kind: KindConstant, RPS: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := drawTimes(t, p, 5, 1)
	for i, want := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		if math.Abs(ts[i]-want) > 1e-12 {
			t.Fatalf("arrival %d at %v, want %v", i, ts[i], want)
		}
	}
}

func TestProcessesDeterministic(t *testing.T) {
	specs := []Spec{
		{Kind: KindPoisson},
		{Kind: KindConstant, RPS: 2},
		{Kind: KindRamp, RPS: 0.5, PeakRPS: 4, PeriodSec: 300},
		{Kind: KindBurst, RPS: 0.5, PeakRPS: 8, PeriodSec: 600, BurstSec: 60},
		{Kind: KindDiurnal, RPS: 0.5, PeakRPS: 4, PeriodSec: 1440},
	}
	for _, s := range specs {
		p, err := New(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Kind, err)
		}
		a := drawTimes(t, p, 200, 42)
		b := drawTimes(t, p, 200, 42)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d differs across identical seeds: %v vs %v", s.Kind, i, a[i], b[i])
			}
		}
		c := drawTimes(t, p, 200, 43)
		if s.Kind != KindConstant {
			same := true
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("%s: schedule did not vary with the seed", s.Kind)
			}
		}
	}
}

// meanRate estimates the empirical rate over [lo, hi) from arrival times.
func meanRate(ts []float64, lo, hi float64) float64 {
	n := 0
	for _, x := range ts {
		if x >= lo && x < hi {
			n++
		}
	}
	return float64(n) / (hi - lo)
}

func TestThinningTracksRateEnvelope(t *testing.T) {
	// Burst: the rate inside the burst window should far exceed the
	// off-burst rate. Use many arrivals so the estimate is stable.
	p, err := New(Spec{Kind: KindBurst, RPS: 0.2, PeakRPS: 10, PeriodSec: 100, BurstSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	ts := drawTimes(t, p, 5000, 9)
	var inBurst, offBurst int
	var horizon float64
	for _, x := range ts {
		if math.Mod(x, 100) < 10 {
			inBurst++
		} else {
			offBurst++
		}
		horizon = x
	}
	periods := horizon / 100
	burstRate := float64(inBurst) / (10 * periods)
	offRate := float64(offBurst) / (90 * periods)
	if burstRate < 5*offRate {
		t.Fatalf("burst rate %.2f not clearly above off-burst rate %.2f", burstRate, offRate)
	}

	// Ramp: the rate late in the ramp should exceed the early rate.
	p, err = New(Spec{Kind: KindRamp, RPS: 0.5, PeakRPS: 5, PeriodSec: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ts = drawTimes(t, p, 3000, 9)
	early := meanRate(ts, 0, 200)
	late := meanRate(ts, 800, 1000)
	if late < 2*early {
		t.Fatalf("ramp late rate %.2f not clearly above early rate %.2f", late, early)
	}
}

func TestScheduleReplay(t *testing.T) {
	s := Schedule{Times: []float64{5, 7, 12}, Classes: []string{"short", "", "long"}}
	ts := drawTimes(t, s, 3, 1)
	for i, want := range []float64{5, 7, 12} {
		if ts[i] != want {
			t.Fatalf("arrival %d at %v, want %v", i, ts[i], want)
		}
	}
	if s.Len() != 3 || s.Start() != 5 {
		t.Fatalf("Len/Start = %d/%v", s.Len(), s.Start())
	}
	if s.ClassAt(0) != "short" || s.ClassAt(1) != "" || s.ClassAt(2) != "long" || s.ClassAt(3) != "" {
		t.Fatalf("ClassAt mismatch")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		spec  Spec
		field string
	}{
		{Spec{}, "kind"},
		{Spec{Kind: "bogus"}, "kind"},
		{Spec{Kind: KindPoisson, RPS: 1}, "rps"},
		{Spec{Kind: KindConstant}, "rps"},
		{Spec{Kind: KindConstant, RPS: 1, MeanSec: 30}, "mean_sec"},
		{Spec{Kind: KindRamp, RPS: 1, PeriodSec: 10}, "peak_rps"},
		{Spec{Kind: KindRamp, RPS: 2, PeakRPS: 1, PeriodSec: 10}, "peak_rps"},
		{Spec{Kind: KindRamp, RPS: 1, PeakRPS: 2}, "period_sec"},
		{Spec{Kind: KindBurst, RPS: 1, PeakRPS: 2, PeriodSec: 10}, "burst_sec"},
		{Spec{Kind: KindBurst, RPS: 1, PeakRPS: 2, PeriodSec: 10, BurstSec: 10}, "burst_sec"},
		{Spec{Kind: KindDiurnal, RPS: 1, PeakRPS: 2, PeriodSec: 10, BurstSec: 1}, "burst_sec"},
		{Spec{Kind: KindCSV}, "times"},
		{Spec{Kind: KindCSV, Times: []float64{3, 1}}, "times[1]"},
		{Spec{Kind: KindCSV, Times: []float64{-1}}, "times[0]"},
		{Spec{Kind: KindCSV, Times: []float64{1, 2}, Classes: []string{"a"}}, "classes"},
		{Spec{Kind: KindPoisson, Classes: []string{"a"}}, "classes"},
		{Spec{Kind: KindPoisson, MeanSec: 1e308}, "mean_sec"},
		{Spec{Kind: KindConstant, RPS: 1e-308}, "rps"},
		{Spec{Kind: KindRamp, RPS: 1, PeakRPS: 2, PeriodSec: 1e308}, "period_sec"},
		{Spec{Kind: KindDiurnal, RPS: 1e-10, PeakRPS: 1, PeriodSec: 10}, "rps"},
		{Spec{Kind: KindBurst, RPS: 1, PeakRPS: 2, PeriodSec: MaxDurationSec, BurstSec: 2 * MaxDurationSec}, "burst_sec"},
		{Spec{Kind: KindCSV, Times: []float64{0, 1e308}}, "times[1]"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Fatalf("spec %+v: expected a validation error", c.spec)
		}
		var fe *FieldError
		if !errorsAs(err, &fe) {
			t.Fatalf("spec %+v: error %v is not a *FieldError", c.spec, err)
		}
		if fe.Field != c.field {
			t.Fatalf("spec %+v: error names field %q, want %q (%v)", c.spec, fe.Field, c.field, err)
		}
	}
}

// errorsAs avoids importing errors for one call.
func errorsAs(err error, target **FieldError) bool {
	fe, ok := err.(*FieldError)
	if ok {
		*target = fe
	}
	return ok
}

func TestCSVRoundTrip(t *testing.T) {
	s := Spec{Kind: KindCSV, Times: []float64{0, 2.5, 2.5, 10.25}, Classes: []string{"short", "long", "short", "long"}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s, "# generated=test"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Times) != len(s.Times) {
		t.Fatalf("round-trip lost rows: %d vs %d", len(got.Times), len(s.Times))
	}
	for i := range s.Times {
		if got.Times[i] != s.Times[i] {
			t.Fatalf("times[%d]: %v vs %v", i, got.Times[i], s.Times[i])
		}
		if got.Classes[i] != s.Classes[i] {
			t.Fatalf("classes[%d]: %q vs %q", i, got.Classes[i], s.Classes[i])
		}
	}
}

func TestReadCSVIgnoresExtraColumns(t *testing.T) {
	// The full tracegen workload.csv column set must decode to the same
	// schedule as the minimal class,arrival_sec shape.
	in := strings.Join([]string{
		"# generated=tracegen",
		"job,name,class,arrival_sec,stages,total_work_sec,critical_path_sec",
		"0,tpch-q1,short,0.00,4,180.00,60.00",
		"1,tpch-q2,long,31.50,5,386.00,90.00",
	}, "\n")
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Times) != 2 || s.Times[1] != 31.5 {
		t.Fatalf("times = %v", s.Times)
	}
	if len(s.Classes) != 2 || s.Classes[0] != "short" || s.Classes[1] != "long" {
		t.Fatalf("classes = %v", s.Classes)
	}
}

func TestReadCSVErrors(t *testing.T) {
	for _, in := range []string{
		"job,name\n0,x\n",               // no arrival_sec column
		"arrival_sec\nnot-a-number\n",   // bad value
		"class,arrival_sec\nshort\n",    // short row
		"class,arrival_sec\na,5\nb,1\n", // decreasing
	} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: expected an error", in)
		}
	}
}
