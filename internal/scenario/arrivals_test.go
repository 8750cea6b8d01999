package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcaps/internal/arrivals"
)

// TestRunBurstArrivalsWithClasses: an arrivals-driven heterogeneous
// comparison runs end to end and stays deterministic under the pool.
func TestRunBurstArrivalsWithClasses(t *testing.T) {
	spec := Spec{
		Name:  "burst",
		Grids: []string{"DE"},
		Workload: WorkloadSpec{
			Jobs:     8,
			Arrivals: &ArrivalsSpec{Kind: "burst", RPS: 0.01, PeakRPS: 0.2, PeriodSec: 600, BurstSec: 60},
			Classes: []ClassSpec{
				{Name: "interactive", Mix: "tpch", Weight: 3, WorkScale: 0.5},
				{Name: "production", Mix: "alibaba", Weight: 1, WorkScale: 2},
			},
		},
		Baseline: &PolicySpec{Kind: "fifo"},
		Policies: []PolicySpec{{Name: "PCAPS", Kind: "pcaps"}},
	}
	prog, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	serial := renderText(t, prog, Env{Fast: true})
	parallel := renderText(t, prog, Env{Fast: true, Pool: NewPool(4)})
	if serial != parallel {
		t.Fatalf("serial and parallel bodies differ:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}

	in, err := prog.Inputs(Env{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if in.Arrivals.Kind != arrivals.KindBurst {
		t.Fatalf("Inputs echoes arrival kind %q, want burst", in.Arrivals.Kind)
	}
	if len(in.Classes) != 2 {
		t.Fatalf("Inputs echoes %d classes, want 2", len(in.Classes))
	}
	for _, j := range in.Jobs {
		if j.Class != "interactive" && j.Class != "production" {
			t.Fatalf("template job %d has class %q", j.ID, j.Class)
		}
	}
}

// TestRunCSVSchedule: a csv arrival schedule on disk drives the batch —
// arrivals replay the file's times and classes exactly.
func TestRunCSVSchedule(t *testing.T) {
	sched := arrivals.Spec{
		Kind:    arrivals.KindCSV,
		Times:   []float64{0, 15, 15.5, 200},
		Classes: []string{"short", "short", "long", "short"},
	}
	path := filepath.Join(t.TempDir(), "sched.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := arrivals.WriteCSV(f, sched, "# generated=test"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	spec := Spec{
		Name:  "replay",
		Grids: []string{"DE"},
		Workload: WorkloadSpec{
			Jobs:     4,
			Arrivals: &ArrivalsSpec{Kind: "csv", CSV: path},
			Classes: []ClassSpec{
				{Name: "short", Mix: "tpch", Weight: 1},
				{Name: "long", Mix: "alibaba", Weight: 1, WorkScale: 2},
			},
		},
		Baseline: &PolicySpec{Kind: "fifo"},
		Policies: []PolicySpec{{Name: "PCAPS", Kind: "pcaps"}},
	}
	prog, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	in, err := prog.Inputs(Env{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range in.Jobs {
		if j.Arrival != sched.Times[i] {
			t.Fatalf("job %d arrives at %v, want %v", i, j.Arrival, sched.Times[i])
		}
		if j.Class != sched.Classes[i] {
			t.Fatalf("job %d has class %q, want %q", i, j.Class, sched.Classes[i])
		}
	}
	if _, err := prog.Run(Env{Fast: true}); err != nil {
		t.Fatal(err)
	}

	// A batch larger than the schedule is a run-time error, not a panic.
	spec.Workload.Jobs = 10
	prog, err = Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(Env{Fast: true}); err == nil || !strings.Contains(err.Error(), "schedule") {
		t.Fatalf("short schedule error = %v, want a schedule-length error", err)
	}
	if _, err := prog.Inputs(Env{Fast: true}); err == nil {
		t.Fatal("Inputs accepted a batch beyond the schedule")
	}

	// A missing schedule file surfaces with the file's path.
	spec.Workload.Jobs = 2
	spec.Workload.Arrivals.CSV = filepath.Join(t.TempDir(), "missing.csv")
	prog, err = Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(Env{Fast: true}); err == nil || !strings.Contains(err.Error(), "workload.arrivals.csv") {
		t.Fatalf("missing file error = %v", err)
	}
}

// TestRunAtDurationCeiling: knobs at arrivals.MaxDurationSec still run,
// and the artifact encodes (past the ceiling, a run overflowed to NaN
// that no encoder writes).
func TestRunAtDurationCeiling(t *testing.T) {
	ceiling := arrivals.MaxDurationSec
	for name, w := range map[string]WorkloadSpec{
		"mean_interarrival_sec": {Mix: "tpch", Jobs: 4, MeanInterarrivalSec: &ceiling},
		"arrivals.rps":          {Mix: "tpch", Jobs: 4, Arrivals: &ArrivalsSpec{Kind: "constant", RPS: 1 / ceiling}},
	} {
		spec := Spec{
			Name: "ceiling", Grids: []string{"DE"}, Workload: w,
			Baseline: &PolicySpec{Kind: "fifo"},
			Policies: []PolicySpec{{Kind: "pcaps"}},
			Engine:   &EngineSpec{MoveDelaySec: ceiling},
		}
		prog, err := Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		art, err := prog.Run(Env{Fast: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := json.Marshal(art); err != nil {
			t.Fatalf("%s: encoding the artifact: %v", name, err)
		}
	}
}
