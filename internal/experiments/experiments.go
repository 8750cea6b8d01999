// Package experiments contains one runner per table and figure of the
// paper's evaluation (§6 and Appendix A). Each runner regenerates the
// artifact's rows or series from the simulator/prototype substrates as a
// typed result.Artifact — structured tables and series next to the
// paper's published values — which the pluggable renderers in
// internal/result turn into fixed-width text, JSON, or CSV.
package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/result"
	"pcaps/internal/scenario"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Grids restricts the carbon traces used (default: all six).
	Grids []string
	// Trials is the number of randomized trials per configuration
	// (paper defaults differ per figure; zero selects each
	// experiment's default).
	Trials int
	// Jobs overrides the batch size where a single size is used.
	Jobs int
	// Seed drives every stochastic choice.
	Seed int64
	// Fast shrinks the experiment matrix for tests and smoke runs: one
	// grid, one batch size, minimal trials, and 4000-hour traces in
	// place of three paper years.
	Fast bool
	// Parallel bounds the worker goroutines used to fan independent
	// experiment cells out over the cores: 0 selects
	// runtime.GOMAXPROCS(0), 1 forces the serial path. The bound is
	// shared across nested fan-outs (RunAll's artifact level and each
	// runner's cell level draw from one pool), so it caps the whole run.
	// Every cell seeds its randomness from its own identity (see
	// seed.Derive), so reports are byte-identical across Parallel
	// settings.
	Parallel int

	// pool is the shared worker budget, created once per Run/RunAll
	// entry and threaded through scoped() copies.
	pool *scenario.Pool
}

// scoped returns a copy of o restricted to the given grids, preserving
// the execution fields (seed, fast mode, parallelism, pool). Runners that
// pin a grid (sweeps, ablations) use it instead of building an Options
// literal, which would silently drop the shared pool.
func (o Options) scoped(grids ...string) Options {
	o.Grids = grids
	return o
}

// validate rejects options the runners cannot execute: unknown grid
// names, which would otherwise surface as nil-trace panics deep inside a
// worker, and duplicate grid names, which would silently run the same
// grid twice through some runners' cell matrices (inflating its weight
// in every cross-grid average).
func (o Options) validate() error {
	// Negative knobs were never meaningful (zero already selects the
	// defaults) and the scenario layer rejects them; failing here keeps
	// every artifact — spec-compiled or bespoke — behaving identically
	// under e.g. `-exp all -seed -5`.
	switch {
	case o.Seed < 0:
		return fmt.Errorf("experiments: negative seed %d", o.Seed)
	case o.Trials < 0:
		return fmt.Errorf("experiments: negative trial count %d", o.Trials)
	case o.Jobs < 0:
		return fmt.Errorf("experiments: negative batch size %d", o.Jobs)
	case o.Parallel < 0:
		return fmt.Errorf("experiments: negative parallelism %d", o.Parallel)
	}
	known := map[string]bool{}
	var names []string
	for _, spec := range carbon.Grids() {
		known[spec.Name] = true
		names = append(names, spec.Name)
	}
	seen := map[string]bool{}
	for _, g := range o.Grids {
		if !known[g] {
			return fmt.Errorf("experiments: unknown grid %q (have %s)", g, strings.Join(names, ", "))
		}
		if seen[g] {
			return fmt.Errorf("experiments: duplicate grid %q in grid set", g)
		}
		seen[g] = true
	}
	return nil
}

func (o Options) withDefaults() Options {
	if len(o.Grids) == 0 {
		if o.Fast {
			o.Grids = []string{"DE"}
		} else {
			o.Grids = []string{"PJM", "CAISO", "ON", "DE", "NSW", "ZA"}
		}
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Report is an executed experiment artifact.
type Report struct {
	// ID is the artifact identifier ("table2", "fig13", ...).
	ID string
	// Title describes the artifact (from the artifact table; also
	// stamped on the artifact itself).
	Title string
	// Artifact is the typed result: structured tables, series, and
	// notes that every renderer consumes.
	Artifact *result.Artifact
}

// Body returns the report's fixed-width text body, without the banner.
func (r *Report) Body() string { return r.Artifact.Body() }

// Render returns the report as printable text, delegating to the text
// renderer — the historical pcapsim stdout format, byte for byte.
func (r *Report) Render() string {
	out, _ := result.TextRenderer{}.Render(r.Artifact) // text rendering cannot fail
	return string(out)
}

// Runner produces one artifact's blocks; Run stamps its identity.
type Runner func(Options) (*result.Artifact, error)

// Info is one artifact's metadata.
type Info struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// artifact is one row of the artifact table. The title exists without
// running anything (pcapsim -list, the /v1/experiments index); alone
// marks a runner whose wall-clock measurements sibling runners would
// corrupt, so RunAll runs it after the concurrent fan-out drains.
type artifact struct {
	id, title string
	run       Runner
	alone     bool
}

// artifacts is the artifact table, in paper order. IDs, List, Run and
// RunAll all read it.
var artifacts = []artifact{
	{id: "table1", title: "carbon intensity trace characteristics", run: table1},
	{id: "table2", title: "prototype results summary (§6.3)", run: table2},
	{id: "table3", title: "simulator results summary (§6.4)", run: table3},
	{id: "fig1", title: "motivating example: four policies on one DAG (§1, Fig 1)", run: fig1},
	{id: "fig5", title: "48-hour carbon intensity snapshots (Fig 5)", run: fig5},
	{id: "fig6", title: "executor occupancy timelines, 5 executors / 20 jobs / DE (Fig 6)", run: fig6},
	{id: "fig7", title: "prototype PCAPS trade-off vs γ (Fig 7)", run: fig7},
	{id: "fig8", title: "prototype CAP trade-off vs B (Fig 8)", run: fig8},
	{id: "fig9", title: "per-job carbon vs JCT scatter, prototype (Fig 9)", run: fig9},
	{id: "fig10", title: "prototype carbon reduction and ECT per grid (Fig 10)", run: fig10},
	{id: "fig11", title: "simulator PCAPS trade-off vs γ (Fig 11)", run: fig11},
	{id: "fig12", title: "simulator CAP-FIFO trade-off vs B (Fig 12)", run: fig12},
	{id: "fig13", title: "PCAPS vs CAP-Decima trade-off frontier (Fig 13)", run: fig13},
	{id: "fig14", title: "simulator carbon reduction and ECT per grid (Fig 14)", run: fig14},
	{id: "fig15", title: "standalone FIFO vs prototype default, identical batch (Fig 15 / A.1.2)", run: fig15},
	{id: "fig16", title: "job-count sweep, simulator (Fig 16 / A.2.1)", run: fig16},
	{id: "fig17", title: "job-count sweep, prototype (Fig 17 / A.2.1)", run: fig17},
	{id: "fig18", title: "interarrival sweep, simulator (Fig 18 / A.2.2)", run: fig18},
	{id: "fig19", title: "interarrival sweep, prototype (Fig 19 / A.2.2)", run: fig19},
	{id: "fig20", title: "scheduler invocation latency vs queue length (Fig 20 / A.2.3)", run: fig20, alone: true},
	{id: "ablation", title: "design-choice ablations (DESIGN.md)", run: ablationReport},
	{id: "federation", title: "multi-grid federation: routing policies vs single-grid baselines", run: federationTable},
	{id: "hyperscale", title: "streaming engine at scale: jobs × executors × policies, memory-bounded", run: runHyperscale},
	{id: "overload", title: "open-loop overload: arrival shapes × policies (backlog, tail JCT)", run: runOverload},
}

// lookup returns the table row of one artifact ID.
func lookup(id string) (artifact, bool) {
	for _, a := range artifacts {
		if a.id == id {
			return a, true
		}
	}
	return artifact{}, false
}

// IDs lists the available artifact IDs in paper order.
func IDs() []string {
	out := make([]string, len(artifacts))
	for i, a := range artifacts {
		out[i] = a.id
	}
	return out
}

// List returns every artifact's metadata in paper order.
func List() []Info {
	out := make([]Info, len(artifacts))
	for i, a := range artifacts {
		out[i] = Info{ID: a.id, Title: a.title}
	}
	return out
}

// Run executes one artifact's runner.
func Run(id string, opt Options) (*Report, error) {
	a, ok := lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown artifact %q (have %v)", id, IDs())
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.pool == nil {
		opt.pool = scenario.NewPool(opt.Parallel)
	}
	art, err := a.run(opt)
	if err != nil {
		return nil, err
	}
	art.ID, art.Title = id, a.title
	return &Report{ID: id, Title: a.title, Artifact: art}, nil
}

// RunAll executes the named artifacts, fanning the runners themselves out
// over the worker pool, and returns the reports in the requested order.
// Runners additionally parallelize their own (grid, size, trial) cells,
// so `-exp all` keeps every core busy even in fast mode, where most
// runners collapse to a handful of cells. Artifacts marked alone
// (timing measurements) run after the fan-out drains.
//
// On failure the first error in request order is returned together with
// the reports slice, whose entries are non-nil for every artifact that
// completed before the run was cut short — callers can render all the
// finished artifacts (not just a contiguous prefix; a slot after the
// failing one may well have finished first) instead of discarding a long
// run's output.
func RunAll(ids []string, opt Options) ([]*Report, error) {
	if opt.pool == nil {
		opt.pool = scenario.NewPool(opt.Parallel)
	}
	reports := make([]*Report, len(ids))
	errs := make([]error, len(ids))
	var concurrent, alone []int
	for i, id := range ids {
		if a, _ := lookup(id); a.alone {
			alone = append(alone, i)
		} else {
			concurrent = append(concurrent, i)
		}
	}
	// Fail fast: once any artifact errors, remaining cells return
	// immediately instead of simulating for minutes before the error
	// surfaces.
	var failed atomic.Bool
	run := func(i int) {
		if failed.Load() {
			return
		}
		reports[i], errs[i] = Run(ids[i], opt)
		if errs[i] != nil {
			failed.Store(true)
		}
	}
	opt.pool.ForEach(len(concurrent), func(k int) { run(concurrent[k]) })
	for _, i := range alone {
		run(i)
	}
	for i, err := range errs {
		if err != nil {
			return reports, fmt.Errorf("%s: %w", ids[i], err)
		}
	}
	return reports, nil
}

// env bundles the shared inputs of one experiment.
type env struct {
	opt    Options
	hours  int
	traces map[string]*carbon.Trace
}

// newEnv resolves the options' defaults, the trace length (4000 hours in
// fast mode, three paper years otherwise: the scenario layer's default
// too) and each selected grid's full trace, read through the scenario
// layer's synthesis cache so a runner and a compiled scenario at the same
// seed share one trace.
func newEnv(opt Options) *env {
	opt = opt.withDefaults()
	e := &env{opt: opt, hours: carbon.PaperHours, traces: map[string]*carbon.Trace{}}
	if opt.Fast {
		e.hours = 4000
	}
	for _, spec := range carbon.Grids() {
		for _, want := range opt.Grids {
			if spec.Name == want {
				e.traces[spec.Name] = scenario.SynthTrace(spec, e.hours, carbon.SynthSeed(opt.Seed, spec.Name))
			}
		}
	}
	return e
}

// batch draws a workload batch with Poisson arrivals at the given mean,
// panicking on configuration errors like mustRun (the experiment matrix
// is fixed at compile time, so failures are bugs).
func batch(n int, interarrival float64, mix workload.Mix, seed int64) []*dag.Job {
	jobs, err := workload.Generate(workload.GenConfig{
		N: n, Arrivals: arrivals.Poisson{MeanSec: interarrival}, Mix: mix, Seed: seed,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return jobs
}

// mustRun runs one simulation, panicking on configuration errors (the
// experiment matrix is fixed at compile time, so failures are bugs).
func mustRun(cfg sim.Config, jobs []*dag.Job, s sim.Scheduler) *sim.Result {
	res, err := sim.Run(cfg, jobs, s)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", s.Name(), err))
	}
	return res
}

// mustRunGroup runs one cell's scheduler variants as a common-prefix
// group (sim.RunGroup): every shared decision prefix simulates once.
// Results are positionally parallel to scheds and byte-identical to
// len(scheds) mustRun calls.
func mustRunGroup(cfg sim.Config, jobs []*dag.Job, scheds ...sim.Scheduler) []*sim.Result {
	res, err := sim.RunGroup(cfg, jobs, scheds)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// runSpec compiles and executes a scenario spec under the run's
// options. The sweeps, per-grid, and federation runner families declare
// their experiments as specs and execute through this one path — the
// same compile-and-run pipeline `pcapsim -scenario` and POST
// /v1/scenarios use for user-authored scenarios (their golden tests pin
// the refactor to the historical bytes).
func runSpec(opt Options, spec scenario.Spec) (*result.Artifact, error) {
	prog, err := scenario.Compile(spec)
	if err != nil {
		return nil, err
	}
	return prog.Run(scenario.Env{Pool: opt.pool, Fast: opt.Fast})
}
