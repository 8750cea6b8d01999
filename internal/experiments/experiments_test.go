package experiments

import (
	"regexp"
	"strings"
	"testing"

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
	if len(o.Grids) != 6 || o.Seed == 0 {
		t.Fatalf("defaults = %+v", o)
	}
	f := Options{Fast: true}.withDefaults()
	if len(f.Grids) != 1 {
		t.Fatalf("fast defaults = %+v", f)
	}
	if h := newEnv(Options{Grids: []string{"DE"}}).hours; h != carbon.PaperHours {
		t.Fatalf("trace length = %d hours, want %d", h, carbon.PaperHours)
	}
	if h := newEnv(Options{Fast: true}).hours; h != 4000 {
		t.Fatalf("fast trace length = %d hours, want 4000", h)
	}
}

// TestNewEnvSharesScenarioTraces: the hand-written runners and compiled
// scenarios read one synthesis cache, so at one (grid, hours, seed) both
// paths return the same trace rather than two equal copies.
func TestNewEnvSharesScenarioTraces(t *testing.T) {
	e := newEnv(Options{Fast: true, Seed: 3})
	tr, err := scenario.Sources{}.Trace(scenario.ClusterSpec{Grid: "DE"}, e.hours, carbon.SynthSeed(3, "DE"))
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

func TestRunRejectsUnknownGrid(t *testing.T) {
	_, err := Run("table2", Options{Fast: true, Seed: 42, Grids: []string{"BOGUS"}})
	if err == nil || !strings.Contains(err.Error(), `unknown grid "BOGUS"`) {
		t.Fatalf("want an unknown-grid error, got: %v", err)
	}
}

// TestRunRejectsNegativeKnobs: zero selects each knob's default, and a
// negative value means nothing, so it is an error before any simulation
// starts — not, as a negative Parallel once was, a silent GOMAXPROCS.
func TestRunRejectsNegativeKnobs(t *testing.T) {
	for _, c := range []struct {
		opt  Options
		want string
	}{
		{Options{Fast: true, Seed: -5}, "negative seed -5"},
		{Options{Fast: true, Seed: 42, Trials: -1}, "negative trial count -1"},
		{Options{Fast: true, Seed: 42, Jobs: -3}, "negative batch size -3"},
		{Options{Fast: true, Seed: 42, Parallel: -4}, "negative parallelism -4"},
	} {
		if _, err := Run("table1", c.opt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%+v: want %q, got: %v", c.opt, c.want, err)
		}
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

// TestListCarriesTitles: artifact metadata exists without running
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
