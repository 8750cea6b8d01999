package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pcaps/internal/dag"
)

// mustGenerate draws a batch, failing the test on a configuration error.
func mustGenerate(t *testing.T, cfg GenConfig) []*dag.Job {
	t.Helper()
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestTPCHQueryValid(t *testing.T) {
	for q := 0; q < NumTPCHQueries; q++ {
		for _, scale := range []int{Scale2GB, Scale10GB, Scale50GB} {
			j, err := TPCHQuery(q, scale, 0)
			if err != nil {
				t.Fatalf("q%d %dGB: %v", q, scale, err)
			}
			if err := j.Validate(); err != nil {
				t.Fatalf("q%d %dGB invalid: %v", q, scale, err)
			}
			if len(j.Roots()) < 2 {
				t.Fatalf("q%d: want ≥2 scan roots, got %d", q, len(j.Roots()))
			}
			if len(j.Leaves()) != 1 {
				t.Fatalf("q%d: want single sink, got %d", q, len(j.Leaves()))
			}
		}
	}
}

func TestTPCHQueryDeterministic(t *testing.T) {
	a, _ := TPCHQuery(7, Scale10GB, 1)
	b, _ := TPCHQuery(7, Scale10GB, 2)
	if len(a.Stages) != len(b.Stages) || a.TotalWork() != b.TotalWork() {
		t.Fatal("same template differs across builds")
	}
}

func TestTPCHQueryBadScale(t *testing.T) {
	if _, err := TPCHQuery(0, 7, 0); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestTPCHMeanWorkMatchesPaper(t *testing.T) {
	// Mean total work across the 22 templates must match the published
	// single-executor durations within 5% for every scale.
	for scale, want := range tpchMeanWork {
		var sum float64
		for q := 0; q < NumTPCHQueries; q++ {
			j, err := TPCHQuery(q, scale, 0)
			if err != nil {
				t.Fatal(err)
			}
			sum += j.TotalWork()
		}
		mean := sum / NumTPCHQueries
		if math.Abs(mean-want) > 0.05*want {
			t.Fatalf("scale %dGB: mean work %v, want ≈%v", scale, mean, want)
		}
	}
}

func TestTPCHWorkSpread(t *testing.T) {
	// Queries must differ in cost (the paper's workloads are skewed).
	lo, hi := math.Inf(1), math.Inf(-1)
	for q := 0; q < NumTPCHQueries; q++ {
		j, _ := TPCHQuery(q, Scale10GB, 0)
		lo = math.Min(lo, j.TotalWork())
		hi = math.Max(hi, j.TotalWork())
	}
	if hi < 2*lo {
		t.Fatalf("work spread too flat: [%v, %v]", lo, hi)
	}
}

func TestAlibabaShapeStatistics(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	const n = 3000
	var workSum, nodeSum float64
	var over2x int
	for i := 0; i < n; i++ {
		j := Alibaba(r, i)
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
		workSum += j.TotalWork()
		nodeSum += float64(len(j.Stages))
		if j.TotalWork() > 2*AlibabaMeanWork {
			over2x++
		}
	}
	meanWork := workSum / n
	if math.Abs(meanWork-AlibabaMeanWork) > 0.25*AlibabaMeanWork {
		t.Fatalf("mean work %v, want ≈%v", meanWork, AlibabaMeanWork)
	}
	meanNodes := nodeSum / n
	if meanNodes < 40 || meanNodes > 95 {
		t.Fatalf("mean nodes %v, want ≈%d", meanNodes, AlibabaMeanNodes)
	}
	// Power law: a clear minority of jobs carry > 2× mean work.
	frac := float64(over2x) / n
	if frac < 0.02 || frac > 0.35 {
		t.Fatalf("heavy-tail fraction %v implausible for a power law", frac)
	}
}

func TestBatchArrivalsMonotone(t *testing.T) {
	jobs := mustGenerate(t, GenConfig{N: 50, Mix: MixTPCH, Seed: 1})
	if len(jobs) != 50 {
		t.Fatalf("len = %d", len(jobs))
	}
	if jobs[0].Arrival != 0 {
		t.Fatalf("first arrival = %v", jobs[0].Arrival)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival {
			t.Fatalf("arrivals not monotone at %d", i)
		}
		if jobs[i].ID != i {
			t.Fatalf("job IDs not dense at %d", i)
		}
	}
}

func TestBatchMeanInterarrival(t *testing.T) {
	jobs := mustGenerate(t, GenConfig{N: 4000, Mix: MixTPCH, Seed: 5})
	gap := jobs[len(jobs)-1].Arrival / float64(len(jobs)-1)
	if math.Abs(gap-30) > 3 {
		t.Fatalf("mean interarrival %v, want ≈30", gap)
	}
}

func TestBatchDeterministic(t *testing.T) {
	a := mustGenerate(t, GenConfig{N: 20, Mix: MixBoth, Seed: 3})
	b := mustGenerate(t, GenConfig{N: 20, Mix: MixBoth, Seed: 3})
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].TotalWork() != b[i].TotalWork() {
			t.Fatalf("batch not deterministic at job %d", i)
		}
	}
	c := mustGenerate(t, GenConfig{N: 20, Mix: MixBoth, Seed: 4})
	if a[5].TotalWork() == c[5].TotalWork() && a[7].Arrival == c[7].Arrival {
		t.Fatal("different seeds produced identical batches")
	}
}

func TestBatchMixes(t *testing.T) {
	for _, mix := range []Mix{MixTPCH, MixAlibaba, MixBoth} {
		jobs := mustGenerate(t, GenConfig{N: 10, Mix: mix, Seed: 2})
		for _, j := range jobs {
			if err := j.Validate(); err != nil {
				t.Fatalf("mix %v job %d: %v", mix, j.ID, err)
			}
		}
	}
	if MixTPCH.String() != "tpch" || MixBoth.String() != "both" || MixAlibaba.String() != "alibaba" {
		t.Fatal("Mix.String broken")
	}
}

func TestTotalWork(t *testing.T) {
	jobs := mustGenerate(t, GenConfig{N: 5, Mix: MixTPCH, Seed: 9})
	var want float64
	for _, j := range jobs {
		want += j.TotalWork()
	}
	if got := TotalWork(jobs); got != want {
		t.Fatalf("TotalWork = %v, want %v", got, want)
	}
}

func TestQuickAlibabaAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		j := Alibaba(r, 0)
		return j.Validate() == nil && j.TotalWork() > 0 && len(j.Roots()) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTPCHQuery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TPCHQuery(i%NumTPCHQueries, Scale10GB, i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlibaba(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Alibaba(r, i)
	}
}
