package scenario

import (
	"cmp"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
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
	Pool *Pool
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

// Compile validates a spec into a runnable program. Validate checks
// every policy through the registry Run builds schedulers from, and
// every router kind, so Run never meets a policy or router it cannot
// build.
func Compile(s Spec) (*Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Program{spec: s}, nil
}

// simError carries a mid-cell simulation failure across the worker
// pool's panic path back to Run, which converts it to an error.
type simError struct{ err error }

// mustRunStream runs one member simulation through the streaming engine,
// drawing jobs lazily from a fresh workload source, aborting the whole
// program on failure (fail-fast through the pool, like the experiment
// engine).
func mustRunStream(cfg sim.Config, src sim.JobSource, s sim.Scheduler) *sim.Result {
	res, err := sim.RunStream(cfg, src, s)
	if err != nil {
		panic(simError{fmt.Errorf("scenario: %s: %w", s.Name(), err)})
	}
	return res
}

// mustRunGroup runs one cell's policy variants as a common-prefix group
// (sim.RunGroup), aborting the whole program on failure. Results are
// positionally parallel to scheds and byte-identical to len(scheds)
// independent runs.
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
	pool   *Pool
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
		r.pool = NewPool(1)
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
	// grid names the member's power grid, which Inputs reports with
	// the trace's synthesis seed.
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
	pl, err := r.plan()
	if err != nil {
		return nil, err
	}
	switch {
	case p.spec.Sweep != nil:
		art, err = r.runSweep(pl)
	case p.spec.Federation != nil:
		art, err = r.runFederation(pl)
	default:
		art, err = r.runComparison(pl)
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

// plan is a scenario family's resolved matrix, the one description both
// Run and Inputs read: the member sets (one per federation topology, one
// otherwise), the batch sizes and the trials.
type plan struct {
	sets   [][]member
	sizes  []int
	trials int
}

// plan resolves the family's matrix. A comparison runs 3 trials of
// {25, 50, 100} jobs over the declared clusters or grids, all six paper
// grids by default. A sweep runs 5 trials of 50 jobs on its one cluster:
// the declared one, else sweep.grid, default DE. A federation runs 3
// trials of 40 jobs over each topology, or over the declared clusters or
// grids. Fast mode runs one trial, shrinks the default batch to 25 jobs
// (16 in a federation) and the default grid set to DE; declared trials
// and batch sizes are used as written.
func (r *runEnv) plan() (*plan, error) {
	s := r.spec
	p := &plan{trials: 3, sizes: []int{25, 50, 100}}
	fastSizes := []int{25}
	switch {
	case s.Sweep != nil:
		p.trials, p.sizes = 5, []int{50}
	case s.Federation != nil:
		p.sizes, fastSizes = []int{40}, []int{16}
	}
	if s.Trials > 0 {
		p.trials = s.Trials
	}
	if r.fast {
		p.trials, p.sizes = 1, fastSizes
	}
	switch {
	case len(s.Workload.Sizes) > 0:
		p.sizes = s.Workload.Sizes
	case s.Workload.Jobs > 0:
		p.sizes = []int{s.Workload.Jobs}
	}

	var sets [][]ClusterSpec
	switch {
	case len(s.Clusters) > 0:
		sets = [][]ClusterSpec{s.Clusters}
	case s.Sweep != nil:
		sets = [][]ClusterSpec{gridClusters([]string{cmp.Or(s.Sweep.Grid, "DE")})}
	case s.Federation != nil && len(s.Federation.Topologies) > 0:
		for _, topo := range s.Federation.Topologies {
			sets = append(sets, gridClusters(topo))
		}
	case len(s.Grids) > 0:
		sets = [][]ClusterSpec{gridClusters(s.Grids)}
	case r.fast:
		sets = [][]ClusterSpec{gridClusters([]string{"DE"})}
	default:
		sets = [][]ClusterSpec{gridClusters([]string{"PJM", "CAISO", "ON", "DE", "NSW", "ZA"})}
	}
	for _, cs := range sets {
		ms := make([]member, len(cs))
		for i, c := range cs {
			tr, err := r.traces.Trace(c, r.hours, carbon.SynthSeed(r.seed, c.Grid))
			if err != nil {
				return nil, err
			}
			ms[i] = member{key: cmp.Or(c.Name, c.Grid), grid: c.Grid, trace: tr, executors: c.Executors}
		}
		p.sets = append(p.sets, ms)
	}
	return p, nil
}

// gridClusters declares one synthesized cluster per grid.
func gridClusters(grids []string) []ClusterSpec {
	cs := make([]ClusterSpec, len(grids))
	for i, g := range grids {
		cs[i] = ClusterSpec{Grid: g}
	}
	return cs
}

// baseConfig builds one member simulation's engine configuration: the
// paper environment the spec selects (PaperSimConfig) with the spec's
// engine overrides applied.
func (r *runEnv) baseConfig(tr *carbon.Trace, m member) sim.Config {
	cfg := PaperSimConfig(r.spec.Proto, tr)
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

func (r *runEnv) runComparison(p *plan) (*result.Artifact, error) {
	members, sizes, trials := p.sets[0], p.sizes, p.trials
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
		tr := TrialWindow(m.trace, 60+c.size, cellSeed)
		cfg := r.baseConfig(tr, m)
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

func (r *runEnv) runSweep(p *plan) (*result.Artifact, error) {
	sw := r.spec.Sweep
	m, n, trials := p.sets[0][0], p.sizes[0], p.trials
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

	// One cell per trial: the baseline and every parameter point run as
	// one group over the trial's shared (cfg, jobs, seed). The fold walks
	// trials in order so the sample order matches a serial sweep exactly,
	// with each point normalized against its trial's baseline, bases[t].
	bases := make([]*sim.Result, trials)
	runs := make([][]*sim.Result, trials)
	r.pool.ForEach(trials, func(t int) {
		cellSeed := seed.Derive(r.seed, m.key, int64(t))
		jobs := r.batch(n, cellSeed)
		tr := TrialWindow(m.trace, 60+n, cellSeed)
		cfg := r.baseConfig(tr, m)
		scheds := make([]sim.Scheduler, 0, len(values)+1)
		scheds = append(scheds, baseline(cellSeed))
		for i := range values {
			scheds = append(scheds, aware[i](cellSeed))
		}
		group := mustRunGroup(cfg, jobs, scheds)
		bases[t] = group[0]
		runs[t] = group[1:]
	})
	for t := 0; t < trials; t++ {
		for i := range values {
			res := runs[t][i]
			pts[i].carbonPct = append(pts[i].carbonPct, -metrics.PercentChange(res.CarbonGrams, bases[t].CarbonGrams))
			pts[i].ects = append(pts[i].ects, res.ECT/bases[t].ECT)
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

// memberSizes renders the members' executor counts for a federation
// header: the one count when every member has it, else each member's
// count in member order, joined by "/".
func (r *runEnv) memberSizes(members []member) string {
	sizes := make([]string, len(members))
	same := true
	for i, m := range members {
		sizes[i] = strconv.Itoa(r.baseConfig(nil, m).NumExecutors)
		same = same && sizes[i] == sizes[0]
	}
	if same {
		return sizes[0]
	}
	return strings.Join(sizes, "/")
}

func (r *runEnv) runFederation(p *plan) (*result.Artifact, error) {
	f := r.spec.Federation
	topologies, njobs, trials := p.sets, p.sizes[0], p.trials
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
			windows[mi] = TrialWindow(m.trace, window, seed.Derive(cellSeed, m.key))
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
				clusters[ci] = fed.ClusterSpec{
					Name:         fmt.Sprintf("%s-%d", m.key, ci),
					Config:       r.baseConfig(windows[src], m),
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
		art.Textf("scenario %s — %d clusters × %s executors, %d jobs, avg of %d trial(s):\n",
			topoKey(members), len(members), r.memberSizes(members), njobs, trials)
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
