package experiments

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcaps/internal/carbon"
	"pcaps/internal/scenario"
)

func fastOpt() Options { return Options{Fast: true, Seed: 42} }

// TestAllArtifactsRunFast exercises every registered artifact in fast
// mode: each must produce a non-empty, correctly labeled report.
func TestAllArtifactsRunFast(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(id, fastOpt())
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if rep.ID != id {
				t.Fatalf("report ID = %q", rep.ID)
			}
			if rep.Title == "" || len(rep.Body()) < 20 {
				t.Fatalf("degenerate report: %+v", rep)
			}
			if !strings.Contains(rep.Render(), id) {
				t.Fatal("Render missing artifact ID")
			}
		})
	}
}

func TestIDsCoverPaperArtifacts(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "ablation", "federation", "hyperscale", "overload",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestRunUnknownArtifact(t *testing.T) {
	if _, err := Run("fig99", fastOpt()); err == nil {
		t.Fatal("unknown artifact accepted")
	}
}

func TestTable1MatchesPaperBounds(t *testing.T) {
	rep, err := Run("table1", Options{Fast: true, Grids: []string{"DE", "ZA"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The exact extremes are matched by construction; spot-check they
	// appear in the rendered rows.
	for _, needle := range []string{"130", "765", "586", "785"} {
		if !strings.Contains(rep.Body(), needle) {
			t.Fatalf("table1 missing %s:\n%s", needle, rep.Body())
		}
	}
}

func TestFig1QualitativeShape(t *testing.T) {
	rep, err := Run("fig1", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	// C-OPT must reduce carbon by far more than PCAPS, which must not be
	// slower than FIFO.
	if !strings.Contains(rep.Body(), "C-OPT") || !strings.Contains(rep.Body(), "PCAPS") {
		t.Fatalf("fig1 missing policies:\n%s", rep.Body())
	}
	lines := strings.Split(rep.Body(), "\n")
	var coptNeg, pcapsNeg bool
	for _, l := range lines {
		if strings.HasPrefix(l, "C-OPT") && strings.Contains(l, "-") {
			coptNeg = true
		}
		if strings.HasPrefix(l, "PCAPS") && strings.Contains(l, "-") {
			pcapsNeg = true
		}
	}
	if !coptNeg || !pcapsNeg {
		t.Fatalf("fig1 carbon reductions missing:\n%s", rep.Body())
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Grids) != 6 || o.Hours != 26304 || o.Seed == 0 {
		t.Fatalf("defaults = %+v", o)
	}
	f := Options{Fast: true}.withDefaults()
	if len(f.Grids) != 1 || f.Hours >= 26304 {
		t.Fatalf("fast defaults = %+v", f)
	}
}

// TestNewEnvSharesScenarioTraces: the hand-written runners and compiled
// scenarios read one synthesis cache, so at one (grid, hours, seed) both
// paths return the same trace rather than two equal copies.
func TestNewEnvSharesScenarioTraces(t *testing.T) {
	e := newEnv(Options{Fast: true, Seed: 3})
	tr, err := scenario.Sources{}.Trace(scenario.ClusterSpec{Grid: "DE"}, e.opt.Hours, carbon.SynthSeed(3, "DE"))
	if err != nil {
		t.Fatal(err)
	}
	if tr != e.traces["DE"] {
		t.Fatal("newEnv and the scenario synth path returned different traces")
	}
}

// maskTimings collapses numbers (and the column padding their width
// changes) to '#', used to compare fig20 bodies whose latency columns are
// live wall-clock measurements (see the fig20 runner comment) and
// therefore differ even between two serial runs.
var (
	numberRun = regexp.MustCompile(`[0-9][0-9.]*`)
	spaceRun  = regexp.MustCompile(` +`)
)

func maskTimings(s string) string {
	return spaceRun.ReplaceAllString(numberRun.ReplaceAllString(s, "#"), " ")
}

// TestSerialParallelDeterminism is the regression gate for the parallel
// experiment engine: for every artifact, the serial path (Parallel: 1)
// must produce byte-identical report bodies at the same seed across the
// fanned-out worker counts the CLI exposes (Parallel: 2, 4, and 0 —
// GOMAXPROCS). With the common-prefix group runner underneath, this also
// proves that forked sweep cells land on the same bytes regardless of
// which worker simulates them. fig20's measured latencies are masked;
// its structure must still match byte-for-byte.
func TestSerialParallelDeterminism(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serial, err := Run(id, Options{Fast: true, Seed: 42, Parallel: 1})
			if err != nil {
				t.Fatalf("serial Run(%s): %v", id, err)
			}
			sb := serial.Body()
			if id == "fig20" {
				sb = maskTimings(sb)
			}
			for _, workers := range []int{2, 4, 0} {
				par, err := Run(id, Options{Fast: true, Seed: 42, Parallel: workers})
				if err != nil {
					t.Fatalf("Run(%s, parallel=%d): %v", id, workers, err)
				}
				pb := par.Body()
				if id == "fig20" {
					pb = maskTimings(pb)
				}
				if sb != pb {
					t.Fatalf("serial and parallel=%d bodies differ for %s:\n--- serial ---\n%s\n--- parallel ---\n%s", workers, id, sb, pb)
				}
			}
		})
	}
}

func TestRunAllOrderAndErrors(t *testing.T) {
	ids := []string{"table1", "fig1"}
	reports, err := RunAll(ids, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if reports[i].ID != id {
			t.Fatalf("reports[%d].ID = %q, want %q", i, reports[i].ID, id)
		}
	}
	if _, err := RunAll([]string{"table1", "fig99"}, fastOpt()); err == nil {
		t.Fatal("RunAll accepted an unknown artifact")
	}
}

func TestForEachCoversAllCellsOnce(t *testing.T) {
	for _, parallel := range []int{1, 3, 16} {
		const n = 100
		counts := make([]int32, n)
		var mu sync.Mutex
		forEach(newPool(parallel), n, func(i int) { mu.Lock(); counts[i]++; mu.Unlock() })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parallel=%d: cell %d ran %d times", parallel, i, c)
			}
		}
	}
	forEach(newPool(4), 0, func(int) { t.Fatal("fn called for n=0") })
	// A nil pool degenerates to a serial loop.
	ran := 0
	forEach(nil, 3, func(int) { ran++ })
	if ran != 3 {
		t.Fatalf("nil pool ran %d of 3 cells", ran)
	}
}

// TestForEachSharedBudget pins the Options.Parallel contract: nested
// fan-outs draw extra workers from one pool, so total concurrency stays
// within the requested bound instead of multiplying per level.
func TestForEachSharedBudget(t *testing.T) {
	p := newPool(3)
	var cur, peak atomic.Int64
	var inner func(depth int)
	inner = func(depth int) {
		forEach(p, 4, func(int) {
			if depth > 0 {
				inner(depth - 1)
				return
			}
			// Only leaf cells count: an ancestor frame is blocked in the
			// recursive call, so each goroutine contributes at most one.
			c := cur.Add(1)
			for {
				old := peak.Load()
				if c <= old || peak.CompareAndSwap(old, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
	}
	inner(2)
	if got := peak.Load(); got > 3 {
		t.Fatalf("peak concurrency %d exceeds the requested bound of 3", got)
	}
}

func TestForEachPropagatesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate")
		}
	}()
	forEach(newPool(4), 8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}

func TestRunRejectsUnknownGrid(t *testing.T) {
	_, err := Run("table2", Options{Fast: true, Seed: 42, Grids: []string{"BOGUS"}})
	if err == nil || !strings.Contains(err.Error(), `unknown grid "BOGUS"`) {
		t.Fatalf("want an unknown-grid error, got: %v", err)
	}
}

// TestRunRejectsDuplicateGrids: a repeated grid (e.g. -grids DE,DE) used
// to silently run the grid twice through some runners' cell matrices,
// doubling its weight in cross-grid averages; it is now a validation
// error before any simulation starts.
func TestRunRejectsDuplicateGrids(t *testing.T) {
	for _, set := range [][]string{{"DE", "DE"}, {"DE", "CAISO", "DE"}} {
		_, err := Run("table2", Options{Fast: true, Seed: 42, Grids: set})
		if err == nil || !strings.Contains(err.Error(), `duplicate grid "DE"`) {
			t.Fatalf("grids %v: want a duplicate-grid error, got: %v", set, err)
		}
	}
	// A non-degenerate subset still passes validation.
	if _, err := Run("table1", Options{Fast: true, Seed: 42, Grids: []string{"DE", "CAISO"}}); err != nil {
		t.Fatalf("distinct grids rejected: %v", err)
	}
}

// TestListCarriesTitles: registry metadata exists without running
// anything (pcapsim -list and /v1/experiments depend on it).
func TestListCarriesTitles(t *testing.T) {
	infos := List()
	ids := IDs()
	if len(infos) != len(ids) {
		t.Fatalf("List has %d entries, IDs %d", len(infos), len(ids))
	}
	for i, info := range infos {
		if info.ID != ids[i] {
			t.Fatalf("List[%d].ID = %q, want %q", i, info.ID, ids[i])
		}
		if info.Title == "" {
			t.Fatalf("artifact %q has no title", info.ID)
		}
	}
	if infos[1].Title != "prototype results summary (§6.3)" {
		t.Fatalf("table2 title = %q", infos[1].Title)
	}
}

func TestCellSeedDistinguishesCoordinates(t *testing.T) {
	seen := map[int64]string{}
	for _, grid := range []string{"DE", "CAISO"} {
		for size := int64(0); size < 4; size++ {
			for trial := int64(0); trial < 4; trial++ {
				s := cellSeed(42, grid, size, trial)
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
	if cellSeed(1, "DE", 2) == cellSeed(2, "DE", 1) {
		t.Fatal("base seed and coordinate are interchangeable")
	}
}
