package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites the recorded artifact text instead of comparing
// against it: go test ./internal/experiments -run 'TestGolden' -update
var updateGolden = flag.Bool("update", false, "rewrite golden artifact files")

// TestGoldenFastText pins the text rendering of every artifact's fast run
// to the bytes recorded in testdata/golden/ — the pre-refactor pcapsim
// stdout. The structured result model must reproduce those bytes exactly
// through the text renderer; any diff here is a rendering regression, not
// a formatting preference. fig20's latency columns are live wall-clock
// measurements, so that artifact is compared with its digits masked (the
// table's structure and row set are still pinned byte-for-byte).
func TestGoldenFastText(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, id, Options{Fast: true, Seed: 42}, filepath.Join("testdata", "golden", id+".txt"))
		})
	}
}

// TestGoldenFullText pins two full-scale artifacts, which the fast
// goldens cannot reach: table1 reads all six three-year traces, so it
// pins each grid's synthesis seed, and table2 runs the prototype
// environment over every (grid, batch size, trial) window of the paper
// matrix.
func TestGoldenFullText(t *testing.T) {
	for _, id := range []string{"table1", "table2"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, id, Options{Seed: 42}, filepath.Join("testdata", "golden", "full", id+".txt"))
		})
	}
}

// checkGolden runs one artifact and compares its text rendering with the
// file at path, or rewrites the file under -update.
func checkGolden(t *testing.T, id string, opt Options, path string) {
	t.Helper()
	rep, err := Run(id, opt)
	if err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	got := rep.Render()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	want := string(wantBytes)
	if id == "fig20" {
		got, want = maskTimings(got), maskTimings(want)
	}
	if got != want {
		t.Fatalf("rendered text diverged from recorded output:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
