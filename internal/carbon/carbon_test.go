package carbon

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mustTrace(t testing.TB, vals ...float64) *Trace {
	t.Helper()
	tr, err := New("test", 60, vals)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 60, nil); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := New("x", 0, []float64{1}); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := New("x", 60, []float64{-1}); err == nil {
		t.Fatal("negative intensity accepted")
	}
	if _, err := New("x", 60, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN intensity accepted")
	}
}

func TestAtAndIndexClamping(t *testing.T) {
	tr := mustTrace(t, 100, 200, 300)
	tests := []struct {
		sec  float64
		want float64
	}{
		{-5, 100}, {0, 100}, {59.9, 100}, {60, 200}, {119, 200}, {120, 300}, {1e6, 300},
	}
	for _, tt := range tests {
		if got := tr.At(tt.sec); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.sec, got, tt.want)
		}
	}
}

func TestNextChange(t *testing.T) {
	tr := mustTrace(t, 100, 200, 300)
	if got := tr.NextChange(0); got != 60 {
		t.Fatalf("NextChange(0) = %v", got)
	}
	if got := tr.NextChange(60); got != 120 {
		t.Fatalf("NextChange(60) = %v", got)
	}
	if got := tr.NextChange(59.5); got != 60 {
		t.Fatalf("NextChange(59.5) = %v", got)
	}
	if got := tr.NextChange(120); !math.IsInf(got, 1) {
		t.Fatalf("NextChange(120) = %v, want +Inf", got)
	}
	if got := tr.NextChange(-100); got != 60 {
		t.Fatalf("NextChange(-100) = %v", got)
	}
}

func TestBounds(t *testing.T) {
	tr := mustTrace(t, 100, 400, 200, 50)
	lo, hi := tr.Bounds(0, 120)
	if lo != 100 || hi != 400 {
		t.Fatalf("Bounds(0,120) = %v,%v", lo, hi)
	}
	lo, hi = tr.Bounds(120, 600)
	if lo != 50 || hi != 200 {
		t.Fatalf("Bounds(120,600) = %v,%v", lo, hi)
	}
	lo, hi = tr.Bounds(0, 0)
	if lo != 100 || hi != 100 {
		t.Fatalf("Bounds(0,0) = %v,%v", lo, hi)
	}
}

func TestSlice(t *testing.T) {
	tr := mustTrace(t, 1, 2, 3, 4, 5)
	s := tr.Slice(60, 120)
	if len(s.Values) != 2 || s.Values[0] != 2 || s.Values[1] != 3 {
		t.Fatalf("Slice = %v", s.Values)
	}
	s = tr.Slice(0, 1e9)
	if len(s.Values) != 5 {
		t.Fatalf("clamped Slice len = %d", len(s.Values))
	}
	s = tr.Slice(240, 1)
	if len(s.Values) != 1 || s.Values[0] != 5 {
		t.Fatalf("tail Slice = %v", s.Values)
	}
}

func TestStats(t *testing.T) {
	tr := mustTrace(t, 100, 200, 300, 400)
	s := tr.Stats()
	if s.Min != 100 || s.Max != 400 || s.Mean != 250 || s.Samples != 4 {
		t.Fatalf("Stats = %+v", s)
	}
	wantStd := math.Sqrt((150*150 + 50*50 + 50*50 + 150*150) / 4.0)
	if math.Abs(s.Std-wantStd) > 1e-9 {
		t.Fatalf("Std = %v, want %v", s.Std, wantStd)
	}
	if math.Abs(s.CoeffVar-wantStd/250) > 1e-9 {
		t.Fatalf("CoeffVar = %v", s.CoeffVar)
	}
}

func TestSynthesizeMatchesTable1(t *testing.T) {
	for _, spec := range Grids() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tr := Synthesize(spec, PaperHours, 60, 42)
			if len(tr.Values) != PaperHours {
				t.Fatalf("samples = %d", len(tr.Values))
			}
			s := tr.Stats()
			// Min, max, mean are matched exactly by the rescale step.
			if math.Abs(s.Min-spec.Min) > 1e-6 || math.Abs(s.Max-spec.Max) > 1e-6 {
				t.Fatalf("min/max = %v/%v, want %v/%v", s.Min, s.Max, spec.Min, spec.Max)
			}
			// The two-piece rescale perturbs the mean slightly; allow 5%.
			if math.Abs(s.Mean-spec.Mean) > 0.05*spec.Mean {
				t.Fatalf("mean = %v, want %v", s.Mean, spec.Mean)
			}
			// Coefficient of variation should be in the right regime
			// (within 40% relative): it drives scheduler behaviour ordering.
			if math.Abs(s.CoeffVar-spec.CoeffVar) > 0.4*spec.CoeffVar {
				t.Fatalf("coeffvar = %v, want ≈%v", s.CoeffVar, spec.CoeffVar)
			}
		})
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	spec, _ := GridByName("DE")
	a := Synthesize(spec, 500, 60, 7)
	b := Synthesize(spec, 500, 60, 7)
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("value %d differs: %v vs %v", i, a.Values[i], b.Values[i])
		}
	}
	c := Synthesize(spec, 500, 60, 8)
	same := true
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestCoeffVarOrderingAcrossGrids(t *testing.T) {
	// The evaluation's key grid-level claim (Figs 10, 14): ZA is flattest,
	// ON is most variable. Verify the synthetic grids preserve ordering.
	traces := SynthesizeAll(PaperHours, 60, 1)
	cv := func(name string) float64 { return traces[name].Stats().CoeffVar }
	if !(cv("ZA") < cv("PJM") && cv("PJM") < cv("NSW")) {
		t.Fatalf("low-variability ordering broken: ZA=%v PJM=%v NSW=%v", cv("ZA"), cv("PJM"), cv("NSW"))
	}
	if !(cv("NSW") < cv("DE") && cv("DE") < cv("ON")) {
		t.Fatalf("high-variability ordering broken: NSW=%v DE=%v ON=%v", cv("NSW"), cv("DE"), cv("ON"))
	}
	if !(cv("CAISO") > cv("NSW")) {
		t.Fatalf("CAISO should vary more than NSW: %v vs %v", cv("CAISO"), cv("NSW"))
	}
}

func TestGridByName(t *testing.T) {
	g, err := GridByName("CAISO")
	if err != nil || g.Mean != 274 {
		t.Fatalf("GridByName(CAISO) = %+v, %v", g, err)
	}
	if _, err := GridByName("XX"); err == nil {
		t.Fatal("unknown grid accepted")
	}
}

func TestSortedNames(t *testing.T) {
	traces := SynthesizeAll(100, 60, 1)
	names := SortedNames(traces)
	want := []string{"PJM", "CAISO", "ON", "DE", "NSW", "ZA"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("SortedNames = %v", names)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := mustTrace(t, 101.5, 202.25, 303)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "test", 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != 3 {
		t.Fatalf("round trip len = %d", len(got.Values))
	}
	for i := range tr.Values {
		if got.Values[i] != tr.Values[i] {
			t.Fatalf("value %d: %v != %v", i, got.Values[i], tr.Values[i])
		}
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("0,100\n1,200\n"), "x", 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != 2 || got.Values[1] != 200 {
		t.Fatalf("values = %v", got.Values)
	}
}

func TestReadCSVBadData(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("hour,i\n0,abc\n"), "x", 60); err == nil {
		t.Fatal("bad data accepted")
	}
	if _, err := ReadCSV(strings.NewReader(""), "x", 60); err == nil {
		t.Fatal("empty CSV accepted")
	}
}

func TestQuickBoundsContainAt(t *testing.T) {
	spec, _ := GridByName("DE")
	tr := Synthesize(spec, 2000, 60, 11)
	f := func(rawFrom, rawHorizon float64) bool {
		from := math.Mod(math.Abs(rawFrom), tr.Duration())
		horizon := math.Mod(math.Abs(rawHorizon), tr.Duration()-from)
		lo, hi := tr.Bounds(from, horizon)
		for s := from; s <= from+horizon; s += tr.Interval / 2 {
			v := tr.At(s)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return lo <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPricing(t *testing.T) {
	p := Pricing{USDPerTonne: 50}
	// One tonne = 1e6 grams.
	if got := p.Cost(1e6); got != 50 {
		t.Fatalf("Cost(1t) = %v", got)
	}
	// One executor-hour at 400 g/kWh = 400 g = $0.02 at $50/t.
	if got := p.MarginalRate(400); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("MarginalRate = %v", got)
	}
}

func TestPriceTraceIsLinearScaling(t *testing.T) {
	tr := mustTrace(t, 100, 400, 250)
	p := Pricing{USDPerTonne: 80}
	pt := p.PriceTrace(tr)
	if pt.Grid != "test-usd" || pt.Interval != tr.Interval || len(pt.Values) != 3 {
		t.Fatalf("price trace meta: %+v", pt)
	}
	for i, v := range tr.Values {
		if math.Abs(pt.Values[i]-p.MarginalRate(v)) > 1e-12 {
			t.Fatalf("price[%d] = %v", i, pt.Values[i])
		}
	}
	// Threshold decisions are invariant under the scaling: the quota at
	// matching positions of the two signals is identical.
	// (Positive linear maps preserve the ordering and the relative
	// position within [L, U], which is all the thresholds consume.)
	loC, hiC := tr.Bounds(0, 1e9)
	loP, hiP := pt.Bounds(0, 1e9)
	ratio := func(x, lo, hi float64) float64 { return (x - lo) / (hi - lo) }
	for i := range tr.Values {
		a := ratio(tr.Values[i], loC, hiC)
		b := ratio(pt.Values[i], loP, hiP)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("normalized positions diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSolarFraction(t *testing.T) {
	spec, _ := GridByName("CAISO")
	tr := Synthesize(spec, 1000, 60, 3)
	for sec := 0.0; sec < 48*60; sec += 30 {
		s := tr.SolarFraction(sec)
		if s < 0 || s > 1 {
			t.Fatalf("SolarFraction(%v) = %v out of [0,1]", sec, s)
		}
	}
	// Night (hour 0-5, 19-23) is zero; solar noon is the daily peak.
	if got := tr.SolarFraction(2 * 60); got != 0 {
		t.Fatalf("solar at 02:00 = %v, want 0", got)
	}
	if got := tr.SolarFraction(22 * 60); got != 0 {
		t.Fatalf("solar at 22:00 = %v, want 0", got)
	}
	noon := tr.SolarFraction(12 * 60)
	if noon <= tr.SolarFraction(8*60) || noon <= tr.SolarFraction(16*60) {
		t.Fatalf("noon %v not the peak (08:00 %v, 16:00 %v)",
			noon, tr.SolarFraction(8*60), tr.SolarFraction(16*60))
	}
	// Flat grids have lower apparent penetration than variable ones.
	za, _ := GridByName("ZA")
	flat := Synthesize(za, 1000, 60, 3)
	if flat.SolarFraction(12*60) >= noon {
		t.Fatalf("ZA solar %v should sit below CAISO %v", flat.SolarFraction(12*60), noon)
	}
}
