// Command tracegen emits synthetic carbon-intensity traces and workload
// batches as CSV for offline analysis or replay.
//
// Usage:
//
//	tracegen -grid DE -hours 2000 > de.csv
//	tracegen -workload tpch -n 50 > jobs.csv
//	tracegen -workload alibaba -n 50 -seed 7 -header > jobs.csv
//	tracegen -scenario spec.json -out inputs/   # every resolved input
//
// Workload CSV columns: job, name, class, arrival_sec, stages,
// total_work_sec, critical_path_sec. The class and arrival_sec columns
// make every workload CSV an arrival schedule: arrivals.ReadCSV decodes
// it (ignoring the other columns), so a scenario can replay a
// previously emitted batch via workload.arrivals{kind: csv}.
//
// -header prepends a '# generated=tracegen ...' provenance comment
// recording the generator parameters (seed, mix, sizes), so a CSV found
// on disk months later still says how to regenerate it; carbon.ReadCSV
// skips '#' comment lines, and the round-trip is pinned by this
// command's tests.
//
// -scenario resolves a declarative spec (internal/scenario) and writes
// one <cluster>.trace.csv per cluster plus workload.csv — the
// scenario's full resolved inputs for offline replay — into the -out
// directory.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/scenario"
	"pcaps/internal/workload"
)

func main() {
	var (
		grid     = flag.String("grid", "", "emit a carbon trace for this grid (PJM, CAISO, ON, DE, NSW, ZA)")
		hours    = flag.Int("hours", carbon.PaperHours, "trace length in hours")
		wl       = flag.String("workload", "", "emit a workload batch: tpch, alibaba, or both")
		n        = flag.Int("n", 50, "number of jobs")
		inter    = flag.Float64("interarrival", 30, "mean Poisson interarrival in seconds")
		seed     = flag.Int64("seed", 42, "random seed")
		header   = flag.Bool("header", false, "prepend a '# generated=tracegen ...' provenance comment")
		scenFile = flag.String("scenario", "", "resolve a scenario spec file and emit its trace/workload CSVs")
		outDir   = flag.String("out", "", "directory for -scenario output (default: current directory)")
	)
	flag.Parse()

	switch {
	case *scenFile != "":
		if err := emitScenario(*scenFile, *outDir, *header); err != nil {
			log.Fatalf("tracegen: %v", err)
		}
	case *grid != "":
		if err := writeGrid(os.Stdout, *grid, *hours, *seed, *header); err != nil {
			log.Fatalf("tracegen: %v", err)
		}
	case *wl != "":
		mix, err := mixFor(*wl)
		if err != nil {
			log.Fatalf("tracegen: %v", err)
		}
		b := batchFlags{n: *n, interarrival: *inter, mix: mix, seed: *seed}
		if err := writeWorkload(os.Stdout, b, *header); err != nil {
			log.Fatalf("tracegen: %v", err)
		}
	default:
		fmt.Fprintln(os.Stderr, "tracegen: pass -grid NAME, -workload KIND, or -scenario FILE")
		os.Exit(2)
	}
}

func mixFor(name string) (workload.Mix, error) {
	switch name {
	case "tpch":
		return workload.MixTPCH, nil
	case "alibaba":
		return workload.MixAlibaba, nil
	case "both":
		return workload.MixBoth, nil
	}
	return 0, fmt.Errorf("unknown workload %q", name)
}

// traceProvenance builds the '# generated=...' comment for a trace CSV,
// or "" when headers are off.
func traceProvenance(grid string, hours int, seed int64, on bool) string {
	if !on {
		return ""
	}
	return fmt.Sprintf("# generated=tracegen grid=%s hours=%d seed=%d", grid, hours, seed)
}

// batchFlags are the -workload mode's generator parameters: n jobs of
// one mix with Poisson arrivals at the given mean gap in seconds.
type batchFlags struct {
	n            int
	interarrival float64
	mix          workload.Mix
	seed         int64
}

// check rejects values the generator cannot honor, naming the flag.
func (b batchFlags) check() error {
	if b.n < 0 {
		return fmt.Errorf("-n %d: the job count must not be negative", b.n)
	}
	if !(b.interarrival > 0) || math.IsInf(b.interarrival, 1) {
		return fmt.Errorf("-interarrival %v: the mean gap must be a positive, finite number of seconds", b.interarrival)
	}
	return nil
}

// workloadProvenance builds the provenance comment for a workload CSV.
func workloadProvenance(b batchFlags) string {
	return fmt.Sprintf("# generated=tracegen seed=%d mix=%s n=%d interarrival=%g",
		b.seed, b.mix, b.n, b.interarrival)
}

// writeGrid checks -hours, then synthesizes one grid's trace and
// serializes it. Synthesize reads a non-positive length as the paper's
// three years, which a header recording the flag's value would misstate.
func writeGrid(w io.Writer, grid string, hours int, seed int64, header bool) error {
	if hours <= 0 {
		return fmt.Errorf("-hours %d: the trace length must be a positive number of hours", hours)
	}
	spec, err := carbon.GridByName(grid)
	if err != nil {
		return err
	}
	return writeTrace(w, carbon.Synthesize(spec, hours, 60, seed), traceProvenance(grid, hours, seed, header))
}

// writeTrace serializes one trace, optionally preceded by a provenance
// comment line (carbon.ReadCSV skips '#' lines, so the file round-trips
// either way).
func writeTrace(w io.Writer, tr *carbon.Trace, provenance string) error {
	if provenance != "" {
		if _, err := fmt.Fprintln(w, provenance); err != nil {
			return err
		}
	}
	return tr.WriteCSV(w)
}

// writeWorkload checks the flags, generates the batch and serializes
// its summary rows.
func writeWorkload(w io.Writer, b batchFlags, header bool) error {
	if err := b.check(); err != nil {
		return err
	}
	jobs, err := workload.Generate(workload.GenConfig{
		N: b.n, Arrivals: arrivals.Poisson{MeanSec: b.interarrival}, Mix: b.mix, Seed: b.seed,
	})
	if err != nil {
		return err
	}
	prov := ""
	if header {
		prov = workloadProvenance(b)
	}
	return writeJobs(w, jobs, prov)
}

// writeJobs serializes a job batch, optionally preceded by a provenance
// comment. The class,arrival_sec column pair doubles as an arrival
// schedule: arrivals.ReadCSV decodes these files directly.
func writeJobs(w io.Writer, jobs []*dag.Job, provenance string) error {
	if provenance != "" {
		if _, err := fmt.Fprintln(w, provenance); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"job", "name", "class", "arrival_sec", "stages", "total_work_sec", "critical_path_sec"}); err != nil {
		return err
	}
	for _, j := range jobs {
		if err := cw.Write(workloadRecord(j)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func workloadRecord(j *dag.Job) []string {
	return []string{
		strconv.Itoa(j.ID), j.Name, j.Class,
		fmt.Sprintf("%.2f", j.Arrival),
		strconv.Itoa(len(j.Stages)),
		fmt.Sprintf("%.2f", j.TotalWork()),
		fmt.Sprintf("%.2f", j.CriticalPathLength()),
	}
}

// arrivalsDesc renders the resolved arrival process for provenance
// comments.
func arrivalsDesc(s arrivals.Spec) string {
	switch s.Kind {
	case arrivals.KindPoisson:
		return fmt.Sprintf("arrivals=poisson mean_sec=%g", s.MeanSec)
	case arrivals.KindConstant:
		return fmt.Sprintf("arrivals=constant rps=%g", s.RPS)
	case arrivals.KindBurst:
		return fmt.Sprintf("arrivals=burst rps=%g peak_rps=%g period_sec=%g burst_sec=%g",
			s.RPS, s.PeakRPS, s.PeriodSec, s.BurstSec)
	case arrivals.KindCSV:
		return fmt.Sprintf("arrivals=csv n=%d", len(s.Times))
	default: // ramp, diurnal
		return fmt.Sprintf("arrivals=%s rps=%g peak_rps=%g period_sec=%g",
			s.Kind, s.RPS, s.PeakRPS, s.PeriodSec)
	}
}

// workloadDesc renders the batch's family axis: the mix for homogeneous
// batches, the class set (name:weight pairs) for heterogeneous ones.
func workloadDesc(mix string, classes []scenario.ClassSpec) string {
	if len(classes) == 0 {
		return "mix=" + mix
	}
	parts := make([]string, len(classes))
	for i, c := range classes {
		parts[i] = fmt.Sprintf("%s:%g", c.Name, c.Weight)
	}
	return "classes=" + strings.Join(parts, ",")
}

// emitScenario resolves a spec's inputs and writes one trace CSV per
// cluster plus the template workload CSV into dir.
func emitScenario(path, dir string, header bool) error {
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	prog, err := scenario.Compile(*spec)
	if err != nil {
		return err
	}
	in, err := prog.Inputs(scenario.Env{})
	if err != nil {
		return err
	}
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Provenance must reflect each cluster's actual source: synthesis
	// parameters only regenerate synthesized traces, so csv/carbonapi
	// clusters record where the samples came from instead.
	sources := map[string]scenario.ClusterSpec{}
	for _, c := range spec.Clusters {
		name := c.Name
		if name == "" {
			name = c.Grid
		}
		sources[name] = c
	}
	for _, c := range in.Clusters {
		file := filepath.Join(dir, c.Name+".trace.csv")
		f, err := os.Create(file)
		if err != nil {
			return err
		}
		prov := ""
		if header {
			base := fmt.Sprintf("# generated=tracegen scenario=%s cluster=%s grid=%s", spec.Name, c.Name, c.Grid)
			switch src := sources[c.Name]; src.Source {
			case "csv":
				prov = fmt.Sprintf("%s source=csv file=%s", base, src.CSV)
			case "carbonapi":
				prov = fmt.Sprintf("%s source=carbonapi url=%s hours=%d", base, src.URL, in.Hours)
			default:
				// SynthSeed, not the run seed: synthesis offsets the run
				// seed per grid, and the header's purpose is that
				// `tracegen -grid G -hours H -seed S` regenerates these
				// exact bytes.
				prov = fmt.Sprintf("%s hours=%d seed=%d", base, in.Hours, c.SynthSeed)
			}
		}
		werr := writeTrace(f, c.Trace, prov)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("%s: %w", file, werr)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d samples)\n", file, len(c.Trace.Values))
	}
	// The resolved batch is written directly: arrivals-driven and
	// heterogeneous batches cannot be rebuilt from the -workload flags,
	// and the provenance comment records the arrival process and class
	// set instead of a single interarrival mean.
	prov := ""
	if header {
		prov = fmt.Sprintf("# generated=tracegen scenario=%s seed=%d %s n=%d %s",
			spec.Name, in.Seed, workloadDesc(in.Mix, in.Classes), in.JobsN, arrivalsDesc(in.Arrivals))
	}
	file := filepath.Join(dir, "workload.csv")
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	werr := writeJobs(f, in.Jobs, prov)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("%s: %w", file, werr)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d jobs)\n", file, in.JobsN)
	return nil
}
