package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"pcaps/internal/arrivals"
)

// TestGenerateDigest pins the paper's batch draw bit for bit: for each
// mix, the 60-job batch at seed 7 with Poisson-30 arrivals must hash to
// a recorded digest of every name, arrival, and stage's task count,
// duration and parents. A change here moves every artifact built on
// these batches.
func TestGenerateDigest(t *testing.T) {
	want := map[Mix]string{
		MixTPCH:    "c3a3bd143b70a016cb360c6c64f372c2b0f57dd42665355d2e1ff43daebb1156",
		MixAlibaba: "ebca6a3fa43ae0fb076a412e6ac1ac578b1808f0efcca6eb57bf273f5f0b7268",
		MixBoth:    "23fbd4a756a4e5db4dcecc33939be5d8727010f3d601d5e5033bc2e2156877a0",
	}
	for _, mix := range []Mix{MixTPCH, MixAlibaba, MixBoth} {
		jobs, err := Generate(GenConfig{N: 60, Arrivals: arrivals.Poisson{MeanSec: 30}, Mix: mix, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, j := range jobs {
			if j.Class != "" {
				t.Fatalf("mix %v job %d: homogeneous batch tagged class %q", mix, j.ID, j.Class)
			}
			fmt.Fprintf(h, "%d %s %x\n", j.ID, j.Name, math.Float64bits(j.Arrival))
			for _, st := range j.Stages {
				fmt.Fprintf(h, " %d %x %v\n", st.NumTasks, math.Float64bits(st.TaskDuration), st.Parents)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[mix] {
			t.Errorf("mix %v: digest %s, want %s", mix, got, want[mix])
		}
	}
}

func TestGenerateNilArrivalsDefaultsToPoisson(t *testing.T) {
	got, err := Generate(GenConfig{N: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Generate(GenConfig{N: 20, Arrivals: arrivals.Poisson{MeanSec: 30}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Arrival != want[i].Arrival {
			t.Fatalf("job %d: arrival %v vs %v", i, got[i].Arrival, want[i].Arrival)
		}
	}
}

func TestGenerateClasses(t *testing.T) {
	classes := []Class{
		{Name: "interactive", Mix: MixTPCH, Weight: 3, WorkScale: 0.25},
		{Name: "production", Mix: MixAlibaba, Weight: 1, WorkScale: 2},
	}
	jobs, err := Generate(GenConfig{N: 400, Classes: classes, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, j := range jobs {
		counts[j.Class]++
	}
	if len(counts) != 2 {
		t.Fatalf("classes drawn: %v", counts)
	}
	// 3:1 weights — the interactive share should be near 75%.
	share := float64(counts["interactive"]) / float64(len(jobs))
	if math.Abs(share-0.75) > 0.08 {
		t.Fatalf("interactive share %.2f, want ≈0.75 (counts %v)", share, counts)
	}

	// Determinism: identical config draws the identical class sequence.
	again, err := Generate(GenConfig{N: 400, Classes: classes, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Class != again[i].Class || jobs[i].Arrival != again[i].Arrival {
			t.Fatalf("job %d differs across identical seeds", i)
		}
	}
}

func TestGenerateWorkScale(t *testing.T) {
	base, err := Generate(GenConfig{N: 30, Classes: []Class{{Name: "c", Mix: MixTPCH, Weight: 1}}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := Generate(GenConfig{N: 30, Classes: []Class{{Name: "c", Mix: MixTPCH, Weight: 1, WorkScale: 2}}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		want := 2 * base[i].TotalWork()
		if math.Abs(scaled[i].TotalWork()-want) > 1e-9*want {
			t.Fatalf("job %d: scaled work %v, want %v", i, scaled[i].TotalWork(), want)
		}
	}
}

func TestGenerateScheduleClasses(t *testing.T) {
	proc := arrivals.Schedule{
		Times:   []float64{0, 10, 20, 30},
		Classes: []string{"a", "b", "", "a"},
	}
	classes := []Class{
		{Name: "a", Mix: MixTPCH, Weight: 1},
		{Name: "b", Mix: MixAlibaba, Weight: 1},
	}
	jobs, err := Generate(GenConfig{N: 4, Arrivals: proc, Classes: classes, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0, 10, 20, 30} {
		if jobs[i].Arrival != want {
			t.Fatalf("job %d: arrival %v, want %v", i, jobs[i].Arrival, want)
		}
	}
	if jobs[0].Class != "a" || jobs[1].Class != "b" || jobs[3].Class != "a" {
		t.Fatalf("labeled arrivals took wrong classes: %q %q %q %q",
			jobs[0].Class, jobs[1].Class, jobs[2].Class, jobs[3].Class)
	}
	if jobs[2].Class != "a" && jobs[2].Class != "b" {
		t.Fatalf("unlabeled arrival drew class %q", jobs[2].Class)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GenConfig{N: -2, Seed: 1}); err == nil {
		t.Fatal("expected an error for a negative batch size")
	}
	short := arrivals.Schedule{Times: []float64{0, 1}}
	if _, err := Generate(GenConfig{N: 3, Arrivals: short, Seed: 1}); err == nil {
		t.Fatal("expected an error for a schedule shorter than N")
	}
	unknown := arrivals.Schedule{Times: []float64{0}, Classes: []string{"nope"}}
	if _, err := Generate(GenConfig{
		N: 1, Arrivals: unknown, Seed: 1,
		Classes: []Class{{Name: "a", Mix: MixTPCH, Weight: 1}},
	}); err == nil {
		t.Fatal("expected an error for an unknown schedule class label")
	}
	if _, err := Generate(GenConfig{
		N: 1, Seed: 1, Classes: []Class{{Name: "a", Mix: MixTPCH, Weight: 0}},
	}); err == nil {
		t.Fatal("expected an error for a zero class weight")
	}
	if _, err := Generate(GenConfig{
		N: 1, Seed: 1,
		Classes: []Class{{Name: "a", Mix: MixTPCH, Weight: 1}, {Name: "a", Mix: MixTPCH, Weight: 1}},
	}); err == nil {
		t.Fatal("expected an error for duplicate class names")
	}
}
