package scenario

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/cluster"
	"pcaps/internal/dag"
	fed "pcaps/internal/federation"
	"pcaps/internal/metrics"
	"pcaps/internal/result"
	"pcaps/internal/seed"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// Env carries the execution-level knobs the caller — CLI, HTTP service,
// or the experiments registry — owns, as opposed to the scenario's own
// description. The zero value runs serially with the default carbon
// sources at full scale.
type Env struct {
	// Pool fans cells out; nil runs serially. Results are identical
	// either way (per-cell seed derivation).
	Pool Pool
	// Fast shrinks the matrix for smoke runs the way the experiment
	// engine's fast mode does: one trial, small batches, short traces.
	Fast bool
	// Traces resolves carbon sources; nil selects Sources{}.
	Traces TraceProvider
}

// Program is a compiled scenario, ready to run. Compile validates and
// lowers the spec once; Run may be called repeatedly (each run
// re-resolves carbon sources, so a live carbonapi source observes the
// server's current traces).
type Program struct {
	spec Spec
}

// Compile validates a spec and lowers it into a runnable program.
func Compile(s Spec) (*Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// Compile every policy and router now so a bad spec fails before
	// any simulation starts; Run recompiles cheaply.
	if s.Baseline != nil {
		if _, err := compilePolicy(*s.Baseline); err != nil {
			return nil, err
		}
	}
	for _, p := range s.Policies {
		if _, err := compilePolicy(p); err != nil {
			return nil, err
		}
	}
	if s.Sweep != nil {
		if _, err := compilePolicy(s.Sweep.Policy); err != nil {
			return nil, err
		}
	}
	if f := s.Federation; f != nil {
		for _, r := range f.Routers {
			if _, err := compileRouter(r); err != nil {
				return nil, err
			}
			if r.Policy != nil {
				if _, err := compilePolicy(*r.Policy); err != nil {
					return nil, err
				}
			}
		}
		if f.Member != nil {
			if _, err := compilePolicy(*f.Member); err != nil {
				return nil, err
			}
		}
	}
	return &Program{spec: s}, nil
}

// Spec returns the program's (validated) spec.
func (p *Program) Spec() Spec { return p.spec }

// simError carries a mid-cell simulation failure across the worker
// pool's panic path back to Run, which converts it to an error.
type simError struct{ err error }

// mustRun runs one member simulation, aborting the whole program on
// failure (fail-fast through the pool, like the experiment engine).
func mustRun(cfg sim.Config, jobs []*dag.Job, s sim.Scheduler) *sim.Result {
	res, err := sim.Run(cfg, jobs, s)
	if err != nil {
		panic(simError{fmt.Errorf("scenario: %s: %w", s.Name(), err)})
	}
	return res
}

// mustRunStream runs one member simulation through the streaming engine,
// drawing jobs lazily from a fresh workload source (fail-fast through the
// pool, like mustRun).
func mustRunStream(cfg sim.Config, src sim.JobSource, s sim.Scheduler) *sim.Result {
	res, err := sim.RunStream(cfg, src, s)
	if err != nil {
		panic(simError{fmt.Errorf("scenario: %s: %w", s.Name(), err)})
	}
	return res
}

// mustRunGroup runs one cell's policy variants as a common-prefix group
// (sim.RunGroup): one shared simulation up to the first policy-divergent
// decision, per-variant forks after. Results are positionally parallel
// to scheds and byte-identical to len(scheds) mustRun calls.
func mustRunGroup(cfg sim.Config, jobs []*dag.Job, scheds []sim.Scheduler) []*sim.Result {
	res, err := sim.RunGroup(cfg, jobs, scheds)
	if err != nil {
		panic(simError{fmt.Errorf("scenario: %w", err)})
	}
	return res
}

// runEnv is the resolved execution state shared by the three families.
type runEnv struct {
	spec   Spec
	fast   bool
	pool   Pool
	traces TraceProvider
	seed   int64
	hours  int
	// arr is the resolved arrival process description (csv schedules
	// loaded); proc is the corresponding generator, shared across cells
	// (processes are stateless — every draw comes from the cell's RNG).
	arr     arrivals.Spec
	proc    arrivals.Process
	mix     workload.Mix
	classes []workload.Class
}

// mixOf maps the spec's mix names onto the workload families.
func mixOf(s string) workload.Mix {
	switch s {
	case "alibaba":
		return workload.MixAlibaba
	case "both":
		return workload.MixBoth
	default:
		return workload.MixTPCH
	}
}

// newRunEnv resolves the execution state shared by Run and Inputs:
// seed 42, fast-scaled trace length, the arrival process (the paper's
// 30-second Poisson unless workload.arrivals says otherwise, with csv
// schedules read here, once per run), and the workload mix or class
// set. The spec is assumed validated (Compile ran).
func newRunEnv(spec Spec, env Env) (*runEnv, error) {
	r := &runEnv{spec: spec, fast: env.Fast, pool: env.Pool, traces: env.Traces}
	if r.pool == nil {
		r.pool = serialPool{}
	}
	if r.traces == nil {
		r.traces = Sources{}
	}
	r.seed = spec.Seed
	if r.seed == 0 {
		r.seed = 42
	}
	r.hours = spec.Hours
	if r.hours <= 0 {
		if r.fast {
			r.hours = 4000
		} else {
			r.hours = carbon.PaperHours
		}
	}
	if a := spec.Workload.Arrivals; a != nil {
		r.arr = a.arrivals()
		if r.arr.Kind == arrivals.KindCSV {
			loaded, err := readSchedule(a.CSV)
			if err != nil {
				return nil, err
			}
			r.arr = loaded
		}
	} else {
		r.arr = arrivals.Spec{Kind: arrivals.KindPoisson, MeanSec: arrivals.DefaultPoissonMeanSec}
		if m := spec.Workload.MeanInterarrivalSec; m != nil {
			r.arr.MeanSec = *m
		}
	}
	proc, err := arrivals.New(r.arr)
	if err != nil {
		return nil, fmt.Errorf("scenario: workload.arrivals: %w", err)
	}
	r.proc = proc
	r.mix = mixOf(spec.Workload.Mix)
	for _, c := range spec.Workload.Classes {
		r.classes = append(r.classes, workload.Class{
			Name: c.Name, Mix: mixOf(c.Mix), Weight: c.Weight, WorkScale: c.WorkScale,
		})
	}
	return r, nil
}

// readSchedule loads a csv arrival schedule from disk.
func readSchedule(path string) (arrivals.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return arrivals.Spec{}, fmt.Errorf("scenario: workload.arrivals.csv: %w", err)
	}
	defer f.Close()
	s, err := arrivals.ReadCSV(f)
	if err != nil {
		return arrivals.Spec{}, fmt.Errorf("scenario: workload.arrivals.csv: %s: %w", path, err)
	}
	return s, nil
}

// member is one resolved cluster/grid axis entry.
type member struct {
	// key is the seed-derivation domain and display label (grid name,
	// or cluster name for explicit clusters).
	key string
	// grid keys the carbon signals.
	grid string
	// trace is the full resolved carbon trace.
	trace *carbon.Trace
	// executors overrides the member's cluster size (0: default).
	executors int
}

// Run executes the compiled scenario and returns its artifact, stamped
// with the spec's name and title (the experiments registry re-stamps
// built-ins with their artifact IDs).
func (p *Program) Run(env Env) (art *result.Artifact, err error) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(simError)
			if !ok {
				panic(r)
			}
			art, err = nil, se.err
		}
	}()
	r, err := newRunEnv(p.spec, env)
	if err != nil {
		return nil, err
	}
	switch {
	case p.spec.Sweep != nil:
		art, err = r.runSweep()
	case p.spec.Federation != nil:
		art, err = r.runFederation()
	default:
		art, err = r.runComparison()
	}
	if err != nil {
		return nil, err
	}
	art.ID = p.spec.Name
	art.Title = p.spec.Title
	if art.Title == "" {
		art.Title = "scenario " + p.spec.Name
	}
	return art, nil
}

// resolveMembers materializes the scenario's cluster axis: explicit
// clusters with their declared carbon sources, or synthesized grids
// (the engine default set when neither is given).
func (r *runEnv) resolveMembers() ([]member, error) {
	if len(r.spec.Clusters) > 0 {
		out := make([]member, len(r.spec.Clusters))
		for i, c := range r.spec.Clusters {
			name := c.Name
			if name == "" {
				name = c.Grid
			}
			tr, err := r.traces.Trace(c, r.hours, synthSeedFor(r.seed, c.Grid))
			if err != nil {
				return nil, err
			}
			out[i] = member{key: name, grid: c.Grid, trace: tr, executors: c.Executors}
		}
		return out, nil
	}
	grids := r.spec.Grids
	if len(grids) == 0 {
		if r.fast {
			grids = []string{"DE"}
		} else {
			grids = []string{"PJM", "CAISO", "ON", "DE", "NSW", "ZA"}
		}
	}
	return r.gridMembers(grids)
}

func (r *runEnv) gridMembers(grids []string) ([]member, error) {
	out := make([]member, len(grids))
	for i, g := range grids {
		tr, err := r.traces.Trace(ClusterSpec{Grid: g}, r.hours, synthSeedFor(r.seed, g))
		if err != nil {
			return nil, err
		}
		out[i] = member{key: g, grid: g, trace: tr}
	}
	return out, nil
}

// baseConfig builds one member simulation's engine configuration: the
// Spark-standalone simulator environment (§5.2) or the Kubernetes
// prototype (§6.3), with the spec's engine overrides applied. The
// defaults reproduce the experiment engine's simConfig/protoConfig
// byte-for-byte.
func (r *runEnv) baseConfig(tr *carbon.Trace, cellSeed int64, m member) sim.Config {
	var cfg sim.Config
	if r.spec.Proto {
		c := cluster.PaperConfig()
		c.Seed = cellSeed
		cfg = c.SimConfig(tr)
	} else {
		cfg = sim.Config{
			NumExecutors:  100,
			Trace:         tr,
			MoveDelay:     1,
			HoldExecutors: true,
			IdleTimeout:   60,
			Seed:          cellSeed,
		}
	}
	if e := r.spec.Engine; e != nil {
		if e.Executors > 0 {
			cfg.NumExecutors = e.Executors
		}
		switch {
		case e.PerJobCap > 0:
			cfg.PerJobCap = e.PerJobCap
		case e.PerJobCap < 0:
			cfg.PerJobCap = 0
		}
		if e.MoveDelaySec > 0 {
			cfg.MoveDelay = e.MoveDelaySec
		}
		if e.IdleTimeoutSec != 0 {
			cfg.IdleTimeout = e.IdleTimeoutSec
		}
	}
	if m.executors > 0 {
		cfg.NumExecutors = m.executors
	}
	return cfg
}

func (r *runEnv) batch(n int, batchSeed int64) []*dag.Job {
	jobs, err := workload.Generate(workload.GenConfig{
		N: n, Arrivals: r.proc, Mix: r.mix, Classes: r.classes, Seed: batchSeed,
	})
	if err != nil {
		// Configuration errors a validated spec can still hit (a csv
		// schedule shorter than the batch); fail-fast through the pool.
		panic(simError{fmt.Errorf("scenario: workload: %w", err)})
	}
	return jobs
}

// source opens the same seeded job stream batch materializes, lazily —
// each caller gets a fresh source, so every policy of a streaming cell
// observes the identical arrival sequence.
func (r *runEnv) source(n int, batchSeed int64) sim.JobSource {
	src, err := workload.NewSource(workload.GenConfig{
		N: n, Arrivals: r.proc, Mix: r.mix, Classes: r.classes, Seed: batchSeed,
	})
	if err != nil {
		panic(simError{fmt.Errorf("scenario: workload: %w", err)})
	}
	return src
}

// streaming reports whether the spec selects the hyperscale engine.
func (r *runEnv) streaming() bool {
	return r.spec.Engine != nil && r.spec.Engine.Stream
}

// pricing returns the scenario's carbon pricing, or nil when unpriced.
func (r *runEnv) pricing() *carbon.Pricing {
	if r.spec.CarbonPriceUSDPerTonne <= 0 {
		return nil
	}
	return &carbon.Pricing{USDPerTonne: r.spec.CarbonPriceUSDPerTonne}
}

func (r *runEnv) appendNotes(a *result.Artifact) {
	for _, n := range r.spec.Notes {
		a.Textf("%s", n)
	}
}

// ---------------------------------------------------------------------------
// Comparison family: baseline vs policies across the member axis, the
// shape of the paper's per-grid comparisons (Figs. 10 and 14).

type comparisonCell struct {
	member, size, trial int
}

func (r *runEnv) runComparison() (*result.Artifact, error) {
	members, err := r.resolveMembers()
	if err != nil {
		return nil, err
	}
	trials := r.spec.Trials
	if trials <= 0 {
		trials = 3
	}
	if r.fast {
		trials = 1
	}
	var sizes []int
	if len(r.spec.Workload.Sizes) > 0 {
		// Fast mode shrinks defaults only; an explicitly declared size
		// axis is honored as written.
		sizes = r.spec.Workload.Sizes
	} else {
		sizes = []int{25, 50, 100}
		if r.fast {
			sizes = []int{25}
		}
		if r.spec.Workload.Jobs > 0 {
			sizes = []int{r.spec.Workload.Jobs}
		}
	}

	baseline, err := compilePolicy(*r.spec.Baseline)
	if err != nil {
		return nil, err
	}
	factories := map[string]policyFactory{}
	names := make([]string, 0, len(r.spec.Policies))
	for _, p := range r.spec.Policies {
		f, err := compilePolicy(p)
		if err != nil {
			return nil, err
		}
		name := policyName(p)
		factories[name] = f
		names = append(names, name)
	}
	// Rows render in name order, matching the historical per-grid
	// tables.
	sort.Strings(names)

	// Enumerate the member × size × trial matrix in rendering order;
	// cells fan out over the pool and fold back in this order, so the
	// artifact is identical at any parallelism.
	var cells []comparisonCell
	for mi := range members {
		for _, size := range sizes {
			for t := 0; t < trials; t++ {
				cells = append(cells, comparisonCell{member: mi, size: size, trial: t})
			}
		}
	}
	runs := make([]map[string]*sim.Result, len(cells))
	r.pool.ForEach(len(cells), func(i int) {
		c := cells[i]
		m := members[c.member]
		cellSeed := seed.Derive(r.seed, m.key, int64(c.size), int64(c.trial))
		tr := trialWindow(m.trace, 60+c.size, cellSeed)
		cfg := r.baseConfig(tr, cellSeed, m)
		if r.streaming() {
			// Hyperscale mode: each policy drains a fresh copy of the
			// same seeded job stream through the memory-bounded engine.
			// Summaries are identical to the classic path (the RunStream
			// equivalence contract, DESIGN.md §10); the comparison reads
			// only CarbonGrams and ECT, which need no per-job slices.
			out := map[string]*sim.Result{
				"": mustRunStream(cfg, r.source(c.size, cellSeed), baseline(cellSeed)),
			}
			for _, name := range names {
				out[name] = mustRunStream(cfg, r.source(c.size, cellSeed), factories[name](cellSeed))
			}
			runs[i] = out
			return
		}
		jobs := r.batch(c.size, cellSeed)
		// The baseline and every policy run as one common-prefix group:
		// variants share the simulation until their first divergent
		// decision (sim.RunGroup), which is most of the run for wrapper
		// policies in low-carbon windows.
		scheds := make([]sim.Scheduler, 0, len(names)+1)
		scheds = append(scheds, baseline(cellSeed))
		for _, name := range names {
			scheds = append(scheds, factories[name](cellSeed))
		}
		group := mustRunGroup(cfg, jobs, scheds)
		out := map[string]*sim.Result{"": group[0]}
		for k, name := range names {
			out[name] = group[k+1]
		}
		runs[i] = out
	})

	type agg struct {
		carbonPct, ects, grams map[string][]float64
		baseGrams              map[string][]float64
	}
	ag := agg{
		carbonPct: map[string][]float64{}, ects: map[string][]float64{},
		grams: map[string][]float64{}, baseGrams: map[string][]float64{},
	}
	perKey := func(name, key string) string { return name + "\x00" + key }
	for i, c := range cells {
		key := members[c.member].key
		base := runs[i][""]
		ag.baseGrams[key] = append(ag.baseGrams[key], base.CarbonGrams)
		for _, name := range names {
			res := runs[i][name]
			k := perKey(name, key)
			ag.carbonPct[k] = append(ag.carbonPct[k], -metrics.PercentChange(res.CarbonGrams, base.CarbonGrams))
			ag.ects[k] = append(ag.ects[k], res.ECT/base.ECT)
			ag.grams[k] = append(ag.grams[k], res.CarbonGrams)
		}
	}

	selected := r.spec.Metrics
	if len(selected) == 0 {
		selected = []string{MetricCarbonReduction, MetricRelativeECT}
		if r.pricing() != nil {
			selected = append(selected, MetricCostUSD)
		}
	}

	a := result.New()
	table := func(name string, prec int, format string, row func(policy, key string) float64, rows []string) *result.Table {
		cols := []result.Column{
			{Name: "scheduler", Kind: result.KindString, Header: "scheduler", HeaderFormat: "%-12s", Format: "%-12s"},
		}
		for _, m := range members {
			cols = append(cols, result.Column{
				Name: m.key, Kind: result.KindFloat, Prec: prec,
				Header: m.key, HeaderFormat: "%10s", Format: format,
			})
		}
		t := &result.Table{Name: name, Columns: cols}
		for _, policy := range rows {
			cells := []result.Cell{result.Str(policy)}
			for _, m := range members {
				cells = append(cells, result.Float(row(policy, m.key)))
			}
			t.Rows = append(t.Rows, cells)
		}
		return t
	}
	for _, metric := range selected {
		switch metric {
		case MetricCarbonReduction:
			a.Textf("carbon reduction (%%):\n")
			a.Add(table("carbon_reduction_pct", 1, "%10.1f", func(policy, key string) float64 {
				return metrics.Summarize(ag.carbonPct[perKey(policy, key)]).Mean
			}, names))
		case MetricRelativeECT:
			a.Textf("relative ECT:\n")
			a.Add(table("relative_ect", 3, "%10.3f", func(policy, key string) float64 {
				return metrics.Summarize(ag.ects[perKey(policy, key)]).Mean
			}, names))
		case MetricCostUSD:
			price := r.pricing()
			baseName := policyName(*r.spec.Baseline)
			a.Textf("carbon cost (USD @ $%.0f/tCO2eq):\n", price.USDPerTonne)
			rows := append([]string{baseName}, names...)
			a.Add(table("cost_usd", 4, "%10.4f", func(policy, key string) float64 {
				// Pricing is linear, so the cost of the mean emissions
				// equals the mean of per-trial costs (pinned by the
				// carbon package's linearity test).
				if policy == baseName {
					return price.Cost(metrics.Summarize(ag.baseGrams[key]).Mean)
				}
				return price.Cost(metrics.Summarize(ag.grams[perKey(policy, key)]).Mean)
			}, rows))
		}
	}
	r.appendNotes(a)
	return a, nil
}

// ---------------------------------------------------------------------------
// Sweep family: one policy template instantiated per parameter value,
// normalized against a baseline — the shape of the paper's γ and B
// sweeps (Figs. 7, 8, 11, 12).

// sweepPoint aggregates trials of one parameter setting.
type sweepPoint struct {
	param           float64
	carbonPct, ects []float64
}

// sweepTable builds the historical sweep table: one row per parameter
// value, mean ± std for carbon reduction and relative ECT.
func sweepTable(label string, pts []sweepPoint) *result.Table {
	t := &result.Table{
		Name: "sweep",
		Columns: []result.Column{
			{Name: "param", Kind: result.KindFloat, Prec: 2, Header: label, HeaderFormat: "%8s", Format: "%8.2f"},
			{Name: "carbon_reduction_pct_mean", Kind: result.KindFloat, Prec: 1,
				Header: "carbon red. (%)", HeaderFormat: " %16s", Format: " %10.1f"},
			{Name: "carbon_reduction_pct_std", Kind: result.KindFloat, Prec: 1, Format: " ±%4.1f"},
			{Name: "relative_ect_mean", Kind: result.KindFloat, Prec: 3,
				Header: "relative ECT", HeaderFormat: " %18s", Format: " %12.3f"},
			{Name: "relative_ect_std", Kind: result.KindFloat, Prec: 3, Format: " ±%.3f"},
		},
	}
	for _, p := range pts {
		c := metrics.Summarize(p.carbonPct)
		e := metrics.Summarize(p.ects)
		t.Row(result.Float(p.param),
			result.Float(c.Mean), result.Float(c.Std),
			result.Float(e.Mean), result.Float(e.Std))
	}
	return t
}

// sweepState is one trial's stage-1 output: the shared batch and
// configuration plus the baseline run every parameter point normalizes
// against.
type sweepState struct {
	jobs []*dag.Job
	cfg  sim.Config
	base *sim.Result
}

func (r *runEnv) runSweep() (*result.Artifact, error) {
	sw := r.spec.Sweep
	var m member
	if len(r.spec.Clusters) > 0 {
		members, err := r.resolveMembers()
		if err != nil {
			return nil, err
		}
		m = members[0]
	} else {
		grid := sw.Grid
		if grid == "" {
			grid = "DE"
		}
		members, err := r.gridMembers([]string{grid})
		if err != nil {
			return nil, err
		}
		m = members[0]
	}
	trials := r.spec.Trials
	if trials <= 0 {
		trials = 5
	}
	if r.fast {
		trials = 1
	}
	n := r.spec.Workload.Jobs
	if n <= 0 {
		n = 50
		// Fast mode shrinks the default batch only; an explicit size is
		// honored (the built-in sweep artifacts never set one, so their
		// goldens see the historical 25-job fast batches).
		if r.fast {
			n = 25
		}
	}
	baseline, err := compilePolicy(*r.spec.Baseline)
	if err != nil {
		return nil, err
	}
	values := sw.Values
	pts := make([]sweepPoint, len(values))
	aware := make([]policyFactory, len(values))
	for i, v := range values {
		pts[i].param = v
		f, err := compilePolicy(bindSweepValue(sw.Policy, v))
		if err != nil {
			return nil, err
		}
		aware[i] = f
	}

	// One cell per trial: the baseline and every parameter point run as a
	// common-prefix group over the trial's shared (cfg, jobs, seed) —
	// neighboring sweep values share almost every scheduling decision, so
	// sim.RunGroup simulates the shared prefix once and forks per value.
	// The fold walks trials in order so the sample order matches a serial
	// sweep exactly.
	states := make([]sweepState, trials)
	runs := make([][]*sim.Result, trials)
	r.pool.ForEach(trials, func(t int) {
		cellSeed := seed.Derive(r.seed, m.key, int64(t))
		jobs := r.batch(n, cellSeed)
		tr := trialWindow(m.trace, 60+n, cellSeed)
		cfg := r.baseConfig(tr, cellSeed, m)
		scheds := make([]sim.Scheduler, 0, len(values)+1)
		scheds = append(scheds, baseline(cellSeed))
		for i := range values {
			scheds = append(scheds, aware[i](cellSeed))
		}
		group := mustRunGroup(cfg, jobs, scheds)
		states[t] = sweepState{jobs: jobs, cfg: cfg, base: group[0]}
		runs[t] = group[1:]
	})
	for t := 0; t < trials; t++ {
		for i := range values {
			res := runs[t][i]
			pts[i].carbonPct = append(pts[i].carbonPct, -metrics.PercentChange(res.CarbonGrams, states[t].base.CarbonGrams))
			pts[i].ects = append(pts[i].ects, res.ECT/states[t].base.ECT)
		}
	}
	label := sw.Label
	if label == "" {
		label = sw.Policy.Kind
	}
	a := result.New().Add(sweepTable(label, pts))
	r.appendNotes(a)
	return a, nil
}

// ---------------------------------------------------------------------------
// Federation family: routing policies (and optional single-grid pins)
// over one or more multi-cluster topologies.

// fedVariant is one table row: a label, an optional pin (every member
// replays that one member's window), a router, and the member
// scheduler.
type fedVariant struct {
	name   string
	pin    int // -1: route across the topology
	router func() fed.Router
	sched  policyFactory
}

// fedAgg averages federation summaries across trials.
type fedAgg struct {
	sumCarbon, sumMakespan, sumJCT float64
	n                              int
}

func (a *fedAgg) add(s metrics.FederationSummary) {
	a.sumCarbon += s.CarbonGrams
	a.sumMakespan += s.Makespan
	a.sumJCT += s.AvgJCT
	a.n++
}

func (a *fedAgg) summary() metrics.FederationSummary {
	n := float64(a.n)
	return metrics.FederationSummary{
		CarbonGrams: a.sumCarbon / n,
		Makespan:    a.sumMakespan / n,
		AvgJCT:      a.sumJCT / n,
	}
}

func (r *runEnv) runFederation() (*result.Artifact, error) {
	f := r.spec.Federation
	// Resolve the topologies: explicit grid-name sets, or the spec's
	// clusters/grids as a single topology.
	var topologies [][]member
	if len(f.Topologies) > 0 {
		for _, topo := range f.Topologies {
			ms, err := r.gridMembers(topo)
			if err != nil {
				return nil, err
			}
			topologies = append(topologies, ms)
		}
	} else {
		ms, err := r.resolveMembers()
		if err != nil {
			return nil, err
		}
		topologies = [][]member{ms}
	}

	trials := r.spec.Trials
	if trials <= 0 {
		trials = 3
	}
	njobs := r.spec.Workload.Jobs
	if njobs <= 0 {
		njobs = 40
	}
	if r.fast {
		trials = 1
		if r.spec.Workload.Jobs <= 0 {
			njobs = 16
		}
	}
	window := 60 + njobs // hours: generous for the batch

	memberPolicy := PolicySpec{Kind: "fifo"}
	if f.Member != nil {
		memberPolicy = *f.Member
	}
	defaultSched, err := compilePolicy(memberPolicy)
	if err != nil {
		return nil, err
	}
	variantsFor := func(members []member) ([]fedVariant, error) {
		var vs []fedVariant
		if f.SinglePins {
			for mi, m := range members {
				rr, err := compileRouter(RouterSpec{Kind: "round-robin"})
				if err != nil {
					return nil, err
				}
				vs = append(vs, fedVariant{name: "single:" + m.key, pin: mi, router: rr, sched: defaultSched})
			}
		}
		for _, rs := range f.Routers {
			router, err := compileRouter(rs)
			if err != nil {
				return nil, err
			}
			sched := defaultSched
			if rs.Policy != nil {
				sched, err = compilePolicy(*rs.Policy)
				if err != nil {
					return nil, err
				}
			}
			vs = append(vs, fedVariant{name: routerName(rs), pin: -1, router: router, sched: sched})
		}
		return vs, nil
	}

	// Cells are (topology, trial); each cell runs every variant over
	// the same batch and windows.
	type cellID struct{ topo, trial int }
	var cells []cellID
	for ti := range topologies {
		for t := 0; t < trials; t++ {
			cells = append(cells, cellID{ti, t})
		}
	}
	topoKey := func(members []member) string {
		keys := make([]string, len(members))
		for i, m := range members {
			keys[i] = m.key
		}
		return strings.Join(keys, "+")
	}

	results := make([]map[string]metrics.FederationSummary, len(cells))
	r.pool.ForEach(len(cells), func(i int) {
		c := cells[i]
		members := topologies[c.topo]
		cellSeed := seed.Derive(r.seed, topoKey(members), int64(c.trial))
		jobs := r.batch(njobs, cellSeed)
		windows := make([]*carbon.Trace, len(members))
		for mi, m := range members {
			windows[mi] = trialWindow(m.trace, window, seed.Derive(cellSeed, m.key))
		}
		variants, err := variantsFor(members)
		if err != nil {
			panic(simError{err})
		}
		out := make(map[string]metrics.FederationSummary)
		for _, v := range variants {
			clusters := make([]fed.ClusterSpec, len(members))
			for ci := range members {
				src := ci
				if v.pin >= 0 {
					src = v.pin
				}
				m := members[src]
				tr := windows[src]
				clusters[ci] = fed.ClusterSpec{
					Name:         fmt.Sprintf("%s-%d", m.key, ci),
					Grid:         m.grid,
					Trace:        tr,
					Config:       r.baseConfig(tr, cellSeed, m),
					NewScheduler: v.sched,
				}
			}
			fedRun := &fed.Federation{Clusters: clusters, Router: v.router(), Seed: cellSeed}
			res, err := fedRun.Run(jobs)
			if err != nil {
				panic(simError{fmt.Errorf("scenario: federation %s: %w", v.name, err)})
			}
			out[v.name] = res.Summary
		}
		results[i] = out
	})

	price := r.pricing()
	cols := metrics.FederationColumns()
	if price != nil {
		cols = append(cols, result.Column{
			Name: "cost_usd", Kind: result.KindFloat, Prec: 4,
			Header: "cost (USD)", HeaderFormat: " %12s", Format: " %12.4f",
		})
	}

	// Fold per topology in cell order; aggregation is a serial mean, so
	// the artifact is identical at any parallelism.
	art := result.New()
	for ti, members := range topologies {
		agg := map[string]*fedAgg{}
		for i, c := range cells {
			if c.topo != ti {
				continue
			}
			//det:unordered per-name fold into independent aggregators; each key's mean is unaffected by visit order
			for name, s := range results[i] {
				a := agg[name]
				if a == nil {
					a = &fedAgg{}
					agg[name] = a
				}
				a.add(s)
			}
		}
		variants, err := variantsFor(members)
		if err != nil {
			return nil, err
		}
		baselineName := routerName(f.Routers[0])
		base := agg[baselineName].summary()
		memberK := r.baseConfig(nil, 0, members[0]).NumExecutors
		art.Textf("scenario %s — %d clusters × %d executors, %d jobs, avg of %d trial(s):\n",
			topoKey(members), len(members), memberK, njobs, trials)
		t := &result.Table{Name: topoKey(members), Columns: cols}
		for _, v := range variants {
			s := agg[v.name].summary()
			row := s.Row(v.name, base)
			if price != nil {
				row = append(row, result.Float(price.Cost(s.CarbonGrams)))
			}
			t.Rows = append(t.Rows, row)
		}
		art.Add(t)
		if ti < len(topologies)-1 {
			art.Textf("\n")
		}
	}
	r.appendNotes(art)
	return art, nil
}
