package seed

import (
	"fmt"
	"testing"
)

func TestDeriveStableAndSeparated(t *testing.T) {
	a := Derive(42, "DE", 25, 0)
	if a != Derive(42, "DE", 25, 0) {
		t.Fatal("Derive is not deterministic")
	}
	if a < 0 {
		t.Fatalf("Derive returned negative seed %d", a)
	}
	distinct := []int64{
		Derive(42, "DE", 25, 0),
		Derive(43, "DE", 25, 0),            // base
		Derive(42, "ZA", 25, 0),            // domain
		Derive(42, "DE", 26, 0),            // coord value
		Derive(42, "DE", 0, 25),            // coord order
		Derive(42, "DE", 25),               // coord count
		Derive(42, "federation/DE", 25, 0), // domain prefix
	}
	seen := map[int64]int{}
	for i, s := range distinct {
		if j, ok := seen[s]; ok {
			t.Fatalf("identities %d and %d collide on %d", i, j, s)
		}
		seen[s] = i
	}
}

// TestDeriveSeparatesCellMatrix: every (grid, batch size, trial) cell of
// an experiment matrix draws from its own non-negative stream, and the
// base seed cannot stand in for a coordinate.
func TestDeriveSeparatesCellMatrix(t *testing.T) {
	seen := map[int64]string{}
	for _, grid := range []string{"DE", "CAISO"} {
		for size := int64(0); size < 4; size++ {
			for trial := int64(0); trial < 4; trial++ {
				s := Derive(42, grid, size, trial)
				if s < 0 {
					t.Fatalf("negative seed %d", s)
				}
				key := fmt.Sprintf("%s/%d/%d", grid, size, trial)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
	if Derive(1, "DE", 2) == Derive(2, "DE", 1) {
		t.Fatal("base seed and coordinate are interchangeable")
	}
}

// TestDeriveMatchesHistoricalRecipe pins the exact output for one
// identity: recorded experiment artifacts (byte-identical reports,
// BENCH_*.json trajectories) depend on this recipe never changing.
func TestDeriveMatchesHistoricalRecipe(t *testing.T) {
	// The FNV-1a fold of (42, "DE", 25, 0) as little-endian 8-byte words.
	const want = 5112272584797408434
	if got := Derive(42, "DE", 25, 0); got != want {
		t.Fatalf("Derive(42, DE, 25, 0) = %d, want %d — the recipe changed; recorded artifacts are invalidated", got, want)
	}
}
