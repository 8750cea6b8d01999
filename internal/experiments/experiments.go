// Package experiments contains one runner per table and figure of the
// paper's evaluation (§6 and Appendix A). Each runner regenerates the
// artifact's rows or series from the simulator/prototype substrates as a
// typed result.Artifact — structured tables and series next to the
// paper's published values — which the pluggable renderers in
// internal/result turn into fixed-width text, JSON, or CSV.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"

	"pcaps/internal/carbon"
	"pcaps/internal/cluster"
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
	// Hours is the synthetic trace length (default: three paper years).
	Hours int
	// Fast shrinks the experiment matrix for tests and smoke runs: one
	// grid, one batch size, minimal trials.
	Fast bool
	// Parallel bounds the worker goroutines used to fan independent
	// experiment cells out over the cores: 0 selects
	// runtime.GOMAXPROCS(0), 1 forces the serial path. The bound is
	// shared across nested fan-outs (RunAll's artifact level and each
	// runner's cell level draw from one pool), so it caps the whole run.
	// Every cell seeds its randomness from its own identity (see
	// cellSeed), so reports are byte-identical across Parallel settings.
	Parallel int

	// pool is the shared worker budget, created once per Run/RunAll
	// entry and threaded through scoped() copies.
	pool *pool
}

// scoped returns a copy of o restricted to the given grids, preserving
// the execution fields (seed, hours, fast mode, parallelism, pool).
// Runners that pin a grid (sweeps, ablations) use it instead of building
// an Options literal, which would silently drop the shared pool.
func (o Options) scoped(grids ...string) Options {
	o.Grids = grids
	o.Trials = 0
	o.Jobs = 0
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
	case o.Hours < 0:
		return fmt.Errorf("experiments: negative trace horizon %d hours", o.Hours)
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
	if o.Hours <= 0 {
		if o.Fast {
			o.Hours = 4000
		} else {
			o.Hours = carbon.PaperHours
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
	// Title describes the artifact (registry metadata; also stamped on
	// the artifact itself).
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

// Runner produces one artifact's blocks; the registry stamps identity.
type Runner func(Options) (*result.Artifact, error)

// Info is one registry entry's metadata.
type Info struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// entry pairs a runner with its title so artifact metadata exists
// without running anything (pcapsim -list, the /v1/experiments index).
type entry struct {
	title string
	run   Runner
}

// registry maps artifact IDs to runners, populated by init() in each file.
var registry = map[string]entry{}

var order = []string{
	"table1", "table2", "table3",
	"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
	"fig18", "fig19", "fig20",
}

func register(id, title string, r Runner) { registry[id] = entry{title: title, run: r} }

// serialOnly marks artifacts whose measurements sibling runners would
// corrupt (wall-clock timing); RunAll executes them alone after the
// concurrent fan-out drains.
var serialOnly = map[string]bool{}

// registerSerial registers a runner that must not share the machine with
// other artifacts while it runs.
func registerSerial(id, title string, r Runner) {
	register(id, title, r)
	serialOnly[id] = true
}

// IDs lists the available artifact IDs in paper order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, id := range order {
		if _, ok := registry[id]; ok {
			out = append(out, id)
		}
	}
	var extra []string
	for id := range registry {
		found := false
		for _, o := range order {
			if o == id {
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// List returns every artifact's metadata in paper order.
func List() []Info {
	ids := IDs()
	out := make([]Info, len(ids))
	for i, id := range ids {
		out[i] = Info{ID: id, Title: registry[id].title}
	}
	return out
}

// Run executes one artifact's runner.
func Run(id string, opt Options) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown artifact %q (have %v)", id, IDs())
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.pool == nil {
		opt.pool = newPool(opt.Parallel)
	}
	art, err := e.run(opt)
	if err != nil {
		return nil, err
	}
	art.ID, art.Title = id, e.title
	return &Report{ID: id, Title: e.title, Artifact: art}, nil
}

// RunAll executes the named artifacts, fanning the runners themselves out
// over the worker pool, and returns the reports in the requested order.
// Runners additionally parallelize their own (grid, size, trial) cells,
// so `-exp all` keeps every core busy even in fast mode, where most
// runners collapse to a handful of cells. Artifacts registered as
// serial-only (timing measurements) run alone after the fan-out drains.
//
// On failure the first error in request order is returned together with
// the reports slice, whose entries are non-nil for every artifact that
// completed before the run was cut short — callers can render all the
// finished artifacts (not just a contiguous prefix; a slot after the
// failing one may well have finished first) instead of discarding a long
// run's output.
func RunAll(ids []string, opt Options) ([]*Report, error) {
	if opt.pool == nil {
		opt.pool = newPool(opt.Parallel)
	}
	reports := make([]*Report, len(ids))
	errs := make([]error, len(ids))
	var concurrent, alone []int
	for i, id := range ids {
		if serialOnly[id] {
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
	forEach(opt.pool, len(concurrent), func(k int) { run(concurrent[k]) })
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
	traces map[string]*carbon.Trace
}

func newEnv(opt Options) *env {
	opt = opt.withDefaults()
	e := &env{opt: opt, traces: map[string]*carbon.Trace{}}
	for i, spec := range carbon.Grids() {
		for _, want := range opt.Grids {
			if spec.Name == want {
				e.traces[spec.Name] = cachedTrace(spec, opt.Hours, opt.Seed+int64(i)*1000003)
			}
		}
	}
	return e
}

// trialTrace returns the trace window for one randomized trial: a
// uniformly random start offset into the grid's three-year history, as
// the prototype experiments do (§6.1). The offset is drawn from a
// dedicated RNG seeded by the cell's identity, so the window depends only
// on the cell — not on how many draws other cells made first — and
// serial and parallel sweeps see identical windows. The cell seed is
// domain-separated first because callers feed the same value to
// workload.Batch; without separation the offset would be the first draw
// of the very stream the job batch consumes.
func (e *env) trialTrace(grid string, windowHours int, seed int64) *carbon.Trace {
	tr := e.traces[grid]
	maxStart := len(tr.Values) - windowHours
	if maxStart < 1 {
		return tr
	}
	rng := rand.New(rand.NewSource(cellSeed(seed, "trace-offset")))
	off := float64(rng.Intn(maxStart)) * tr.Interval
	return tr.Slice(off, float64(windowHours)*tr.Interval)
}

// simConfig is the Spark-standalone simulator environment (§5.2): all
// executors shared, applications retain executors per Spark's dynamic
// allocation semantics.
func simConfig(tr *carbon.Trace, seed int64) sim.Config {
	return sim.Config{
		NumExecutors:  100,
		Trace:         tr,
		MoveDelay:     1,
		HoldExecutors: true,
		IdleTimeout:   60,
		Seed:          seed,
	}
}

// protoConfig is the Kubernetes prototype environment (§6.3).
func protoConfig(tr *carbon.Trace, seed int64) sim.Config {
	cfg := cluster.PaperConfig()
	cfg.Seed = seed
	return cfg.SimConfig(tr)
}

// batch draws a workload batch.
func batch(n int, interarrival float64, mix workload.Mix, seed int64) []*dag.Job {
	return workload.Batch(workload.BatchConfig{N: n, MeanInterarrival: interarrival, Mix: mix, Seed: seed})
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
// group (sim.RunGroup): the shared decision prefix simulates once and
// variants fork at their first divergent decision. Results are
// positionally parallel to scheds and byte-identical to len(scheds)
// mustRun calls.
func mustRunGroup(cfg sim.Config, jobs []*dag.Job, scheds ...sim.Scheduler) []*sim.Result {
	res, err := sim.RunGroup(cfg, jobs, scheds)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// scenarioPool adapts the experiment engine's shared-budget worker pool
// to the scenario layer's Pool interface, so a built-in artifact
// declared as a scenario spec draws its cell workers from the same
// process-wide budget as every other runner.
type scenarioPool struct{ p *pool }

// ForEach implements scenario.Pool.
func (a scenarioPool) ForEach(n int, fn func(i int)) { forEach(a.p, n, fn) }

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
	return prog.Run(scenario.Env{Pool: scenarioPool{opt.pool}, Fast: opt.Fast})
}
