// Command pcapsim regenerates the paper's tables and figures from the
// simulator and prototype substrates.
//
// Usage:
//
//	pcapsim -exp table2            # one artifact
//	pcapsim -exp all               # every artifact, paper order
//	pcapsim -list                  # show artifact IDs and titles
//	pcapsim -exp fig13 -trials 5 -seed 7
//	pcapsim -exp table3 -grids DE,CAISO -fast
//	pcapsim -exp federation        # multi-grid routing vs single-grid baselines
//	pcapsim -exp federation -grids CAISO,DE  # one custom scenario
//	pcapsim -exp table2 -fast -format json   # structured artifact to stdout
//	pcapsim -exp all -fast -format csv -out results/  # one file per artifact
//	pcapsim -exp all -fast -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	pcapsim -scenario examples/scenarios/minimal.json           # user scenario
//	pcapsim -scenario my.yaml -fast -parallel 4 -format json -out results/
//
// -scenario compiles a declarative spec file (JSON or the YAML subset of
// internal/scenario) and runs it through the same engine as the built-in
// artifacts; it composes with -fast, -parallel, -format, and -out.
//
// Each report is a typed result.Artifact; -format selects the renderer
// (text reproduces the historical fixed-width output next to the paper's
// published values; json and csv emit the machine-readable rows), and
// -out writes one file per artifact instead of streaming to stdout. The
// -cpuprofile/-memprofile flags write standard pprof profiles of the run
// (inspect with `go tool pprof`), so hot-path work on the engine needs
// no code edits to measure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pcaps/internal/experiments"
	"pcaps/internal/result"
	"pcaps/internal/scenario"
)

func main() {
	os.Exit(run())
}

// run holds main's body so deferred profile writers execute before the
// process exits, on success and failure alike.
func run() int {
	var (
		exp      = flag.String("exp", "", "artifact to regenerate (table1..3, fig1..20, ablation, federation, or 'all')")
		scenFile = flag.String("scenario", "", "compile and run a declarative scenario spec file (JSON or YAML)")
		list     = flag.Bool("list", false, "list artifact IDs and titles (tab-separated) and exit")
		grids    = flag.String("grids", "", "comma-separated grid subset (default: all six)")
		trials   = flag.Int("trials", 0, "trials per configuration (0 = experiment default)")
		jobs     = flag.Int("jobs", 0, "override batch size where applicable")
		seed     = flag.Int64("seed", 42, "random seed (nonzero)")
		fast     = flag.Bool("fast", false, "shrink the experiment matrix for a quick pass")
		parallel = flag.Int("parallel", 0, "worker goroutines for experiment cells (0 = GOMAXPROCS, 1 = serial); reports are identical at any setting")
		format   = flag.String("format", "text", "output format: "+strings.Join(result.Formats(), "|"))
		outDir   = flag.String("out", "", "write one <id>.<ext> file per artifact into this directory instead of stdout")
		cpuprof  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	renderer, err := result.RendererFor(*format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcapsim: -format: %v\n", err)
		return 2
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcapsim: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pcapsim: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pcapsim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "pcapsim: -memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, info := range experiments.List() {
			fmt.Printf("%s\t%s\n", info.ID, info.Title)
		}
		return 0
	}
	if *exp == "" && *scenFile == "" {
		fmt.Fprintln(os.Stderr, "pcapsim: -exp or -scenario required (or -list); e.g. pcapsim -exp table3")
		return 2
	}
	if *exp != "" && *scenFile != "" {
		fmt.Fprintln(os.Stderr, "pcapsim: -exp and -scenario are mutually exclusive")
		return 2
	}
	if *scenFile != "" {
		// A scenario carries its own seed, trials, batch size, and grid
		// set; silently ignoring these flags would make a command-line
		// seed sweep return identical outputs, so they are rejected
		// instead — edit the spec (or copy it) to vary them.
		scenarioOwns := map[string]bool{"seed": true, "trials": true, "jobs": true, "grids": true}
		conflict := ""
		flag.Visit(func(f *flag.Flag) {
			if scenarioOwns[f.Name] && conflict == "" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(os.Stderr, "pcapsim: -%s does not apply to -scenario runs; set it in the spec file\n", conflict)
			return 2
		}
	}
	if *parallel < 0 {
		// Like the other negative knobs, a negative worker count means
		// nothing; it would otherwise run at GOMAXPROCS unannounced.
		fmt.Fprintf(os.Stderr, "pcapsim: -parallel %d is negative; pass 0 (GOMAXPROCS) or a worker count\n", *parallel)
		return 2
	}
	if *seed == 0 {
		// Options reads a zero seed as "use the default", so -seed 0
		// would silently print the -seed 42 run.
		fmt.Fprintln(os.Stderr, "pcapsim: -seed 0 selects the default seed 42; pass a nonzero seed")
		return 2
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "pcapsim: -out: %v\n", err)
			return 1
		}
	}
	if *scenFile != "" {
		return runScenario(*scenFile, renderer, *outDir, *fast, *parallel)
	}
	opt := experiments.Options{
		Trials:   *trials,
		Jobs:     *jobs,
		Seed:     *seed,
		Fast:     *fast,
		Parallel: *parallel,
	}
	if *grids != "" {
		// Grid names are validated by experiments.Run; a typo or a
		// duplicate surfaces as a clear error before any simulation
		// starts.
		opt.Grids = strings.Split(*grids, ",")
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	// Rendered artifacts go to stdout in request order; timing goes to
	// stderr so stdout stays byte-identical across -parallel settings.
	// On failure, every artifact that finished before the run was cut
	// short still renders — with the parallel engine a slot after the
	// failing one may well have completed, so nil slots are skipped
	// rather than treated as the end of the output.
	start := time.Now()
	reports, err := experiments.RunAll(ids, opt)
	printed := 0
	renderErr := false
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		out, rerr := renderer.Render(rep.Artifact)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "pcapsim: rendering %s: %v\n", rep.ID, rerr)
			renderErr = true
			continue
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, rep.ID+"."+renderer.Ext())
			if werr := os.WriteFile(path, out, 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "pcapsim: %v\n", werr)
				renderErr = true
				continue
			}
		} else {
			os.Stdout.Write(out)
			if renderer.Name() == "text" {
				fmt.Println()
			}
		}
		printed++
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcapsim: %v\n", err)
		return 1
	}
	if renderErr {
		return 1
	}
	fmt.Fprintf(os.Stderr, "[%d artifact(s) in %.1fs]\n", printed, time.Since(start).Seconds())
	return 0
}

// runScenario loads, compiles, and executes one declarative scenario
// spec, rendering through the same -format/-out machinery as the
// built-in artifacts. Timing goes to stderr so stdout stays a pure
// function of the spec.
func runScenario(path string, renderer result.Renderer, outDir string, fast bool, parallel int) int {
	spec, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcapsim: -scenario: %v\n", err)
		return 2
	}
	prog, err := scenario.Compile(*spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcapsim: -scenario: %v\n", err)
		return 2
	}
	start := time.Now()
	art, err := prog.Run(scenario.Env{Pool: scenario.NewPool(parallel), Fast: fast})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcapsim: %v\n", err)
		return 1
	}
	out, err := renderer.Render(art)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcapsim: rendering %s: %v\n", art.ID, err)
		return 1
	}
	if outDir != "" {
		file := filepath.Join(outDir, art.ID+"."+renderer.Ext())
		if err := os.WriteFile(file, out, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pcapsim: %v\n", err)
			return 1
		}
	} else {
		os.Stdout.Write(out)
		if renderer.Name() == "text" {
			fmt.Println()
		}
	}
	fmt.Fprintf(os.Stderr, "[scenario %s in %.1fs]\n", art.ID, time.Since(start).Seconds())
	return 0
}
