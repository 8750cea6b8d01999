package scenario

import (
	"testing"

	"pcaps/internal/carbon"
	"pcaps/internal/seed"
)

func TestTrialTraceWindows(t *testing.T) {
	full, err := Sources{}.Trace(ClusterSpec{Grid: "DE"}, 4000, carbon.SynthSeed(3, "DE"))
	if err != nil {
		t.Fatal(err)
	}
	tr := TrialWindow(full, 100, seed.Derive(3, "DE", 0))
	if len(tr.Values) != 100 {
		t.Fatalf("window = %d samples", len(tr.Values))
	}
	// Different cells land at different offsets (with high probability).
	a := TrialWindow(full, 100, seed.Derive(3, "DE", 1))
	b := TrialWindow(full, 100, seed.Derive(3, "DE", 2))
	same := true
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("trial windows identical across cells")
	}
	// The same cell always sees the same window, no matter how many other
	// draws happened in between — the property parallel execution needs.
	c := TrialWindow(full, 100, seed.Derive(3, "DE", 1))
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			t.Fatal("same cell produced different windows")
		}
	}
}
