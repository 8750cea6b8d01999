package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustPsi(t testing.TB, gamma, l, u float64) *Psi {
	t.Helper()
	p, err := NewPsi(gamma, l, u)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPsiValidation(t *testing.T) {
	for _, tt := range []struct{ g, l, u float64 }{
		{-0.1, 100, 200}, {1.1, 100, 200}, {math.NaN(), 100, 200},
		{0.5, 0, 200}, {0.5, -5, 200}, {0.5, 300, 200}, {0.5, 100, math.Inf(1)},
	} {
		if _, err := NewPsi(tt.g, tt.l, tt.u); err == nil {
			t.Fatalf("NewPsi(%v,%v,%v) accepted", tt.g, tt.l, tt.u)
		}
	}
}

func TestPsiEndpoints(t *testing.T) {
	// Ψγ(1) = U for every γ: maximal-importance stages always run (§4.1).
	for _, g := range []float64{0, 0.1, 0.5, 0.9, 1} {
		p := mustPsi(t, g, 130, 765)
		if got := p.Value(1); math.Abs(got-765) > 1e-9 {
			t.Fatalf("Ψ_%v(1) = %v, want U", g, got)
		}
	}
	// Ψγ(0) = γL + (1−γ)U.
	p := mustPsi(t, 0.5, 130, 765)
	if got, want := p.Value(0), 0.5*130+0.5*765; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Ψ_0.5(0) = %v, want %v", got, want)
	}
	// γ = 1: Ψ₁(0) = L.
	p = mustPsi(t, 1, 130, 765)
	if got := p.Value(0); math.Abs(got-130) > 1e-9 {
		t.Fatalf("Ψ_1(0) = %v, want L", got)
	}
}

func TestPsiGammaZeroIsCarbonAgnostic(t *testing.T) {
	p := mustPsi(t, 0, 130, 765)
	for _, r := range []float64{0, 0.2, 0.7, 1} {
		if got := p.Value(r); got != 765 {
			t.Fatalf("Ψ_0(%v) = %v, want U", r, got)
		}
		if !p.Admits(r, 765) {
			t.Fatalf("γ=0 must admit everything at c=U")
		}
	}
}

func TestPsiMonotoneInImportance(t *testing.T) {
	p := mustPsi(t, 0.8, 83, 451)
	prev := math.Inf(-1)
	for r := 0.0; r <= 1.0; r += 0.01 {
		v := p.Value(r)
		if v < prev {
			t.Fatalf("Ψ not non-decreasing at r=%v: %v < %v", r, v, prev)
		}
		if v < p.L-1e-9 || v > p.U+1e-9 {
			t.Fatalf("Ψ(%v) = %v outside [L,U]", r, v)
		}
		prev = v
	}
}

func TestPsiMoreCarbonAwareDefersMore(t *testing.T) {
	// Larger γ lowers the threshold for low-importance stages, so a fixed
	// mid-range carbon intensity rejects them at high γ but not low γ.
	lo := mustPsi(t, 0.1, 100, 700)
	hi := mustPsi(t, 0.9, 100, 700)
	r, c := 0.2, 500.0
	if !lo.Admits(r, c) {
		t.Fatalf("γ=0.1 should admit r=%v at c=%v (Ψ=%v)", r, c, lo.Value(r))
	}
	if hi.Admits(r, c) {
		t.Fatalf("γ=0.9 should defer r=%v at c=%v (Ψ=%v)", r, c, hi.Value(r))
	}
}

func TestPsiClampsImportance(t *testing.T) {
	p := mustPsi(t, 0.5, 100, 700)
	if p.Value(-3) != p.Value(0) || p.Value(7) != p.Value(1) {
		t.Fatal("importance not clamped")
	}
}

func TestRelativeImportance(t *testing.T) {
	probs := []float64{0.1, 0.4, 0.2, 0.3}
	if got := RelativeImportance(probs, 1); got != 1 {
		t.Fatalf("max element importance = %v, want 1", got)
	}
	if got := RelativeImportance(probs, 0); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("importance = %v, want 0.25", got)
	}
	if got := RelativeImportance([]float64{0.7}, 0); got != 1 {
		t.Fatalf("singleton importance = %v, want 1 (Def 4.2)", got)
	}
	if got := RelativeImportance(nil, 0); got != 1 {
		t.Fatalf("empty importance = %v, want 1", got)
	}
	if got := RelativeImportance([]float64{0, 0}, 1); got != 1 {
		t.Fatalf("all-zero importance = %v, want 1", got)
	}
	if got := RelativeImportance(probs, 9); got != 1 {
		t.Fatalf("out-of-range index importance = %v, want 1", got)
	}
}

func TestPCAPSParallelismLimit(t *testing.T) {
	p := mustPsi(t, 0.5, 100, 700)
	// At c = L the scale is min{1, 1−γ} = 0.5.
	if got := p.ParallelismLimit(10, 100); got != 5 {
		t.Fatalf("limit at L = %d, want 5", got)
	}
	// At c = U the normalized exponential binds: ⌈10·e^{−4·0.5}⌉ = 2.
	if got := p.ParallelismLimit(10, 700); got != 2 {
		t.Fatalf("limit at U = %d, want 2", got)
	}
	// A stricter γ decays to a single executor at U: ⌈10·e^{−3.6}⌉ = 1.
	p9 := mustPsi(t, 0.9, 100, 700)
	if got := p9.ParallelismLimit(10, 700); got != 1 {
		t.Fatalf("γ=0.9 limit at U = %d, want 1", got)
	}
	// Monotone non-increasing in carbon.
	prev := 11
	for c := 100.0; c <= 700; c += 50 {
		lim := p.ParallelismLimit(10, c)
		if lim > prev {
			t.Fatalf("limit not monotone at c=%v: %d > %d", c, lim, prev)
		}
		prev = lim
	}
	// γ = 0 leaves the planned limit unchanged.
	p0 := mustPsi(t, 0, 100, 700)
	if got := p0.ParallelismLimit(10, 700); got != 10 {
		t.Fatalf("γ=0 limit = %d, want 10", got)
	}
	// γ = 1 still guarantees progress (clamped to ≥ 1).
	p1 := mustPsi(t, 1, 100, 700)
	if got := p1.ParallelismLimit(10, 100); got != 1 {
		t.Fatalf("γ=1 limit = %d, want 1", got)
	}
	if got := p.ParallelismLimit(1, 100); got != 1 {
		t.Fatalf("planned=1 limit = %d", got)
	}
	if got := p.ParallelismLimit(0, 100); got != 1 {
		t.Fatalf("planned=0 limit = %d", got)
	}
}

func TestCAPQuotaAndMinSeen(t *testing.T) {
	c, err := NewCAP(100, 20, 130, 765)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 100 || c.B() != 20 {
		t.Fatalf("K,B = %d,%d", c.K(), c.B())
	}
	if q := c.Quota(130); q != 100 {
		t.Fatalf("Quota(L) = %d, want 100", q)
	}
	if q := c.Quota(765); q != 20 {
		t.Fatalf("Quota(U) = %d, want 20", q)
	}
}

func TestCAPParallelismLimit(t *testing.T) {
	c, err := NewCAP(100, 20, 130, 765)
	if err != nil {
		t.Fatal(err)
	}
	// Low carbon: full quota, limit unchanged.
	if got := c.ParallelismLimit(10, 0); got != 10 {
		t.Fatalf("limit at c=0 = %d, want 10", got)
	}
	// Quota B=20 of K=100 → ⌈10·0.2⌉ = 2.
	if got := c.ParallelismLimit(10, 765); got != 2 {
		t.Fatalf("limit at U = %d, want 2", got)
	}
	if got := c.ParallelismLimit(1, 765); got != 1 {
		t.Fatalf("planned=1 limit = %d", got)
	}
}

func TestNewCAPValidation(t *testing.T) {
	if _, err := NewCAP(10, 0, 100, 200); err == nil {
		t.Fatal("B=0 accepted")
	}
	if _, err := NewCAP(10, 5, 300, 200); err == nil {
		t.Fatal("L>U accepted")
	}
}

func TestCAPStretchFactor(t *testing.T) {
	// m = K: no throttling, CSF = 1.
	if got := CAPStretchFactor(100, 100); math.Abs(got-1) > 1e-12 {
		t.Fatalf("CSF(m=K) = %v, want 1", got)
	}
	// Formula check: K=100, m=20 → 25 · 39/199.
	want := 25.0 * 39 / 199
	if got := CAPStretchFactor(100, 20); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CSF = %v, want %v", got, want)
	}
	// Clamping.
	if got := CAPStretchFactor(10, 0); got != CAPStretchFactor(10, 1) {
		t.Fatal("m=0 not clamped to 1")
	}
}

func TestPCAPSStretchFactor(t *testing.T) {
	if got := PCAPSStretchFactor(50, 0); got != 1 {
		t.Fatalf("CSF(d=0) = %v, want 1", got)
	}
	k, d := 50, 0.3
	want := 1 + d*float64(k)/(2-1.0/float64(k))
	if got := PCAPSStretchFactor(k, d); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CSF = %v, want %v", got, want)
	}
	if got := PCAPSStretchFactor(50, 2); got != PCAPSStretchFactor(50, 1) {
		t.Fatal("d>1 not clamped")
	}
}

func TestDecomposeSavingsIdentity(t *testing.T) {
	// A hand-built scenario: agnostic runs 3 machines for 4 intervals;
	// aware runs {1,1,3,3} and then 2+2 extra intervals of make-up work.
	agnostic := []float64{3, 3, 3, 3}
	aware := []float64{1, 1, 3, 3, 2, 2}
	intensity := []float64{500, 400, 100, 100, 150, 50}
	d := DecomposeSavings(agnostic, aware, intensity)
	if d.W != 4 {
		t.Fatalf("W = %v, want 4", d.W)
	}
	wantAg := 3*500 + 3*400 + 3*100 + 3*100.0
	wantCa := 1*500 + 1*400 + 3*100 + 3*100 + 2*150 + 2*50.0
	if d.AgnosticEmissions != wantAg || d.AwareEmissions != wantCa {
		t.Fatalf("emissions = %v/%v, want %v/%v", d.AgnosticEmissions, d.AwareEmissions, wantAg, wantCa)
	}
	// Theorem 4.4 identity: savings = W(s₋ − s₊ − c_tail).
	if got := d.W * (d.SMinus - d.SPlus - d.CTail); math.Abs(got-d.Savings) > 1e-9 {
		t.Fatalf("decomposition identity broken: %v vs %v", got, d.Savings)
	}
	if d.Savings != wantAg-wantCa {
		t.Fatalf("savings = %v, want %v", d.Savings, wantAg-wantCa)
	}
	if d.SPlus != 0 {
		t.Fatalf("SPlus = %v, want 0 (aware never exceeds agnostic)", d.SPlus)
	}
}

func TestDecomposeSavingsWithOpportunisticWork(t *testing.T) {
	// Aware schedule uses MORE machines in interval 1 (low carbon): s₊ > 0.
	agnostic := []float64{2, 2, 2}
	aware := []float64{0, 4, 2}
	intensity := []float64{600, 100, 300}
	d := DecomposeSavings(agnostic, aware, intensity)
	if d.SPlus == 0 {
		t.Fatal("expected positive SPlus")
	}
	if got := d.W * (d.SMinus - d.SPlus - d.CTail); math.Abs(got-d.Savings) > 1e-9 {
		t.Fatalf("identity broken: %v vs %v", got, d.Savings)
	}
}

// TestQuickDecompositionIdentity verifies the Theorem 4.4 algebraic
// identity savings = W(s₋ − s₊ − c_tail) on random timelines whose
// carbon-aware variant conserves total work (deferral, not deletion).
func TestQuickDecompositionIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(20)
		agnostic := make([]float64, n)
		intensity := make([]float64, n+10)
		var total float64
		for i := range agnostic {
			agnostic[i] = float64(r.Intn(5))
			total += agnostic[i]
		}
		for i := range intensity {
			intensity[i] = 50 + r.Float64()*700
		}
		// Build an aware timeline with the same total work, shifted later.
		aware := make([]float64, n+10)
		remaining := total
		for i := 0; i < len(aware) && remaining > 0; i++ {
			u := math.Min(remaining, float64(r.Intn(4)))
			aware[i] = u
			remaining -= u
		}
		if remaining > 0 {
			aware[len(aware)-1] += remaining
		}
		d := DecomposeSavings(agnostic, aware, intensity)
		lhs := d.W * (d.SMinus - d.SPlus - d.CTail)
		return math.Abs(lhs-d.Savings) < 1e-6*(1+math.Abs(d.Savings))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPsiWithinBounds(t *testing.T) {
	f := func(rawG, rawL, rawU, rawR float64) bool {
		g := math.Mod(math.Abs(rawG), 1)
		l := 1 + math.Mod(math.Abs(rawL), 700)
		u := l + math.Mod(math.Abs(rawU), 700)
		p, err := NewPsi(g, l, u)
		if err != nil {
			return false
		}
		v := p.Value(math.Mod(math.Abs(rawR), 1))
		return v >= l-1e-9 && v <= u+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParallelismLimitBounds(t *testing.T) {
	f := func(rawG, rawC float64, rawP uint8) bool {
		g := math.Mod(math.Abs(rawG), 1)
		p, err := NewPsi(g, 100, 700)
		if err != nil {
			return false
		}
		planned := int(rawP%64) + 1
		lim := p.ParallelismLimit(planned, math.Mod(math.Abs(rawC), 900))
		return lim >= 1 && lim <= planned
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDeferralFraction(t *testing.T) {
	if got := DeferralFraction(0, 100); got != 0 {
		t.Fatalf("D(0 work) = %v", got)
	}
	if got := DeferralFraction(50, 100); got != 0.5 {
		t.Fatalf("D = %v, want 0.5", got)
	}
	if got := DeferralFraction(500, 100); got != 1 {
		t.Fatalf("D not clamped: %v", got)
	}
	if got := DeferralFraction(5, 0); got != 0 {
		t.Fatalf("D with zero total = %v", got)
	}
}

func BenchmarkPsiValue(b *testing.B) {
	p, err := NewPsi(0.5, 130, 765)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Value(float64(i%100) / 100)
	}
}

func TestCorollaryEstimators(t *testing.T) {
	// B.1: baseline 80% busy, PCAPS throttled to 30% at c=500 on K=100:
	// savings = (0.8−0.3)·100·500.
	if got := AvgSavingsPCAPS(100, 0.8, 0.3, 500); got != 0.5*100*500 {
		t.Fatalf("AvgSavingsPCAPS = %v", got)
	}
	// Inputs are clamped to [0,1].
	if got := AvgSavingsPCAPS(100, 1.5, -0.2, 100); got != 1.0*100*100 {
		t.Fatalf("clamped AvgSavingsPCAPS = %v", got)
	}
	// B.2: exact and threshold-bound forms.
	exact, lower := AvgSavingsCAP(100, 40, 0.9, 0.8, 500, 450)
	wantDiff := 0.9*100 - 0.8*40
	if math.Abs(exact-wantDiff*500) > 1e-9 || math.Abs(lower-wantDiff*450) > 1e-9 {
		t.Fatalf("AvgSavingsCAP = %v, %v", exact, lower)
	}
}

func TestUtilizationFromUsage(t *testing.T) {
	// 2 intervals of 60 s on K=4: 120 and 240 busy exec-seconds.
	got := UtilizationFromUsage([]float64{120, 240}, 60, 4)
	want := (120 + 240.0) / (2 * 60 * 4)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("UtilizationFromUsage = %v, want %v", got, want)
	}
	if UtilizationFromUsage(nil, 60, 4) != 0 {
		t.Fatal("empty usage utilization != 0")
	}
	if UtilizationFromUsage([]float64{1}, 0, 4) != 0 {
		t.Fatal("zero interval utilization != 0")
	}
}

func TestConditionalUtilization(t *testing.T) {
	usage := []float64{60, 120, 240, 0}
	intensity := []float64{100, 500, 500, 100}
	// High-carbon intervals (≥400): indices 1 and 2.
	got := ConditionalUtilization(usage, intensity, 60, 4, 400, math.Inf(1))
	want := (120 + 240.0) / (2 * 60 * 4)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ConditionalUtilization(high) = %v, want %v", got, want)
	}
	// Low-carbon intervals: indices 0 and 3.
	got = ConditionalUtilization(usage, intensity, 60, 4, 0, 400)
	want = (60 + 0.0) / (2 * 60 * 4)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ConditionalUtilization(low) = %v, want %v", got, want)
	}
	if ConditionalUtilization(usage, intensity, 60, 4, 900, 1000) != 0 {
		t.Fatal("empty band utilization != 0")
	}
}
