// Package scenario is the declarative experiment layer: a typed,
// validated specification of one carbon-aware scheduling scenario —
// workload mix and batch configuration, cluster topology, a carbon
// source per cluster (synthesized grid, CSV trace, or a live carbonapi
// URL), a scheduler policy set with CAP/PCAPS parameters, an optional
// federation topology with a routing policy, seed, and metric selection
// — that compiles into the same simulation cells the experiment engine
// runs. Specs load from JSON or a YAML subset (Load/Parse), compile
// with Compile, and execute through Program.Run into a result.Artifact,
// so user-authored scenarios share one execution path with the built-in
// paper artifacts: the sweeps, per-grid comparison, and federation
// runner families in internal/experiments are themselves declared as
// Specs and compiled through this package (their golden tests pin the
// bytes). The remaining hand-written runners build their cells from this
// package's parts too: the cached grid traces (SynthTrace), the trial
// windows (TrialWindow), and the two paper environments
// (PaperSimConfig).
//
// Determinism contract: a compiled scenario is a pure function of
// (Spec, fast flag) — every stochastic choice derives from
// seed.Derive over the spec seed and the cell's identity, so the same
// spec produces identical artifacts at any parallelism, in the CLI and
// over HTTP alike. See DESIGN.md §5.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/sched"
)

// Spec is one declarative scenario. The zero fields of the optional
// knobs select the engine defaults documented on each field; Validate
// reports the first offending field by its JSON name.
//
// Exactly one experiment family is selected by the section present:
//
//   - Sweep      → a parameter sweep of one policy against a baseline
//   - Federation → multi-cluster routing over a topology
//   - otherwise  → a baseline-vs-policies comparison across the
//     clusters (or grids)
type Spec struct {
	// Name identifies the scenario; it becomes the artifact ID.
	Name string `json:"name"`
	// Title is the artifact's display title (defaults to "scenario <name>").
	Title string `json:"title,omitempty"`
	// Seed drives every stochastic choice; 0 selects 42.
	Seed int64 `json:"seed,omitempty"`
	// Hours is the synthesized trace length (0: 4000 fast, else the
	// paper's three years).
	Hours int `json:"hours,omitempty"`
	// Proto selects the Kubernetes-prototype cluster environment (§6.3:
	// 100 executors, 25-executor per-job cap, pod-start delay) instead
	// of the Spark-standalone simulator environment (§5.2).
	Proto bool `json:"proto,omitempty"`
	// Grids names synthesized paper grids to compare across (comparison
	// family) or to build a federation topology from. Empty selects the
	// engine default (all six; "DE" alone in fast mode). Mutually
	// exclusive with Clusters.
	Grids []string `json:"grids,omitempty"`
	// Clusters declares explicit clusters, each with its own carbon
	// source. Mutually exclusive with Grids.
	Clusters []ClusterSpec `json:"clusters,omitempty"`
	// Workload is the job batch configuration.
	Workload WorkloadSpec `json:"workload"`
	// Trials is the randomized trials per configuration (0: family
	// default; fast mode always runs one).
	Trials int `json:"trials,omitempty"`
	// Baseline is the policy every comparison or sweep normalizes
	// against. Required for those families.
	Baseline *PolicySpec `json:"baseline,omitempty"`
	// Policies is the comparison family's policy set; rows render in
	// name order.
	Policies []PolicySpec `json:"policies,omitempty"`
	// Sweep selects the parameter-sweep family.
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Federation selects the multi-cluster routing family.
	Federation *FederationSpec `json:"federation,omitempty"`
	// Metrics selects the comparison family's summary tables; empty
	// selects carbon_reduction_pct and relative_ect (plus cost_usd when
	// a carbon price is set).
	Metrics []string `json:"metrics,omitempty"`
	// CarbonPriceUSDPerTonne prices emissions via carbon.Pricing: when
	// positive, comparison and federation artifacts gain a dollar-cost
	// column/table (sweeps report relative numbers only and reject a
	// price). Because the price is a positive linear scaling of
	// intensity, it never changes a scheduling decision — only the
	// account.
	CarbonPriceUSDPerTonne float64 `json:"carbon_price_usd_per_tonne,omitempty"`
	// Notes are literal text lines appended after the tables (the
	// built-ins carry the paper comparisons here).
	Notes []string `json:"notes,omitempty"`
	// Engine overrides individual simulator-environment knobs.
	Engine *EngineSpec `json:"engine,omitempty"`
}

// WorkloadSpec configures the job batch of every trial.
type WorkloadSpec struct {
	// Mix is the workload family: "tpch", "alibaba", or "both". Mutually
	// exclusive with Classes, which carry their own per-class mixes.
	Mix string `json:"mix,omitempty"`
	// Jobs is the batch size (0: family default).
	Jobs int `json:"jobs,omitempty"`
	// Sizes runs the comparison family at several batch sizes and
	// averages across them (default 25/50/100 when Jobs is unset).
	Sizes []int `json:"sizes,omitempty"`
	// MeanInterarrivalSec is the Poisson interarrival mean. Omitted (nil)
	// means the paper's 30-second default; an explicit 0 is rejected
	// rather than silently selecting the default. Mutually exclusive
	// with Arrivals (which carries its own rate fields).
	MeanInterarrivalSec *float64 `json:"mean_interarrival_sec,omitempty"`
	// Arrivals selects a non-Poisson open-loop arrival process
	// (internal/arrivals); nil keeps the paper's Poisson batch.
	Arrivals *ArrivalsSpec `json:"arrivals,omitempty"`
	// Classes makes the batch heterogeneous: each arrival draws one of
	// the named classes by weight (or takes the class its schedule row
	// names) and builds that class's DAG family at its work scale.
	Classes []ClassSpec `json:"classes,omitempty"`
}

// ArrivalsSpec declares the workload's arrival process — the scenario
// grammar over arrivals.Spec. Exactly the fields of the selected kind
// apply; see internal/arrivals for the per-kind semantics.
type ArrivalsSpec struct {
	// Kind selects the process: poisson, constant, ramp, burst, diurnal,
	// or csv.
	Kind string `json:"kind"`
	// MeanSec is the poisson kind's mean interarrival gap. Omitted (nil)
	// means the paper's 30-second default; an explicit 0 is rejected.
	MeanSec *float64 `json:"mean_sec,omitempty"`
	// RPS is the base rate in jobs/second (constant rate, ramp start,
	// off-burst rate, diurnal trough).
	RPS float64 `json:"rps,omitempty"`
	// PeakRPS is the high rate (ramp end, in-burst rate, diurnal peak).
	PeakRPS float64 `json:"peak_rps,omitempty"`
	// PeriodSec is the shape's time scale (ramp rise time, burst/diurnal
	// cycle length).
	PeriodSec float64 `json:"period_sec,omitempty"`
	// BurstSec is the burst kind's spike duration per period.
	BurstSec float64 `json:"burst_sec,omitempty"`
	// CSV is the csv kind's schedule file (class,arrival_sec columns,
	// the shape `tracegen -scenario` emits and arrivals.ReadCSV decodes).
	CSV string `json:"csv,omitempty"`
}

// ClassSpec declares one heterogeneous workload class.
type ClassSpec struct {
	// Name labels the class (job.Class, schedule class column).
	Name string `json:"name"`
	// Mix is the class's DAG family: "tpch", "alibaba", or "both".
	Mix string `json:"mix"`
	// Weight is the class's relative arrival share; must be positive.
	Weight float64 `json:"weight"`
	// WorkScale multiplies the class's stage durations (0: 1, the
	// family's published scale).
	WorkScale float64 `json:"work_scale,omitempty"`
}

// arrivals lowers the scenario grammar to the arrivals package's spec.
// The csv kind's schedule is not loaded here — times are resolved from
// the file at run time; validation substitutes a placeholder.
func (a *ArrivalsSpec) arrivals() arrivals.Spec {
	s := arrivals.Spec{
		Kind:      a.Kind,
		RPS:       a.RPS,
		PeakRPS:   a.PeakRPS,
		PeriodSec: a.PeriodSec,
		BurstSec:  a.BurstSec,
	}
	if a.MeanSec != nil {
		s.MeanSec = *a.MeanSec
	}
	return s
}

// ClusterSpec declares one cluster and its carbon source.
type ClusterSpec struct {
	// Name labels the cluster in results; defaults to Grid.
	Name string `json:"name,omitempty"`
	// Grid is the power-grid identifier: the GridSpec name for "synth",
	// the label for "csv", the server-side grid name for "carbonapi".
	Grid string `json:"grid"`
	// Source selects where the carbon trace comes from: "synth"
	// (default, the calibrated generator), "csv" (a file in WriteCSV /
	// Electricity Maps shape), or "carbonapi" (fetched from a live
	// carbonapi server).
	Source string `json:"source,omitempty"`
	// CSV is the trace file path for Source "csv".
	CSV string `json:"csv,omitempty"`
	// URL is the carbonapi base URL for Source "carbonapi".
	URL string `json:"url,omitempty"`
	// Executors overrides the cluster's executor count (0: engine
	// default).
	Executors int `json:"executors,omitempty"`
}

// PolicySpec declares one scheduling policy.
type PolicySpec struct {
	// Name is the row label; defaults to Kind.
	Name string `json:"name,omitempty"`
	// Kind is one of fifo, kube-default, weighted-fair, decima,
	// uniformpb, greenhadoop, cap, pcaps.
	Kind string `json:"kind"`
	// B is CAP's minimum machine quota, at least 1. Omitted (nil) means
	// the registry default (sched.DefaultCAPB = 20); an explicit 0 is
	// rejected rather than silently selecting the default. Use
	// sched.Int for literals.
	B *int `json:"b,omitempty"`
	// Gamma is PCAPS's carbon-awareness parameter in (0, 1]. Omitted
	// (nil) means the registry default (sched.DefaultPCAPSGamma = 0.5);
	// an explicit 0 is rejected rather than silently selecting the
	// default. Use sched.Float for literals.
	Gamma *float64 `json:"gamma,omitempty"`
	// Inner is the policy CAP wraps (default fifo) or the probabilistic
	// policy PCAPS interfaces with (decima or uniformpb; default
	// decima).
	Inner *PolicySpec `json:"inner,omitempty"`
}

// SweepSpec declares a parameter sweep: Policy is instantiated once per
// value, with the value bound to the parameter its Kind exposes (cap →
// B, pcaps → Gamma), and every run is normalized against the spec's
// Baseline.
type SweepSpec struct {
	// Grid pins the sweep to one synthesized grid (default "DE", the
	// paper's sweep grid).
	Grid string `json:"grid,omitempty"`
	// Label heads the parameter column (default the swept kind).
	Label string `json:"label,omitempty"`
	// Values are the parameter settings, in rendering order.
	Values []float64 `json:"values"`
	// Policy is the swept policy template.
	Policy PolicySpec `json:"policy"`
}

// RouterSpec declares one federated routing policy row.
type RouterSpec struct {
	// Name labels the row; defaults to "fed:<kind>".
	Name string `json:"name,omitempty"`
	// Kind is one of round-robin, lowest-intensity, forecast-aware.
	Kind string `json:"kind"`
	// Hysteresis is forecast-aware's switching margin (0: the package
	// default of 5%).
	Hysteresis float64 `json:"hysteresis,omitempty"`
	// Policy overrides the member-cluster scheduler for this row.
	Policy *PolicySpec `json:"policy,omitempty"`
}

// FederationSpec declares the multi-cluster routing family.
type FederationSpec struct {
	// Topologies lists grid-name sets; each becomes one comparison
	// block with synthesized members. Empty selects one topology from
	// the spec's Clusters (or Grids).
	Topologies [][]string `json:"topologies,omitempty"`
	// Routers are the federated rows, in order; the first is the
	// baseline the "vs" column compares against.
	Routers []RouterSpec `json:"routers"`
	// SinglePins adds one "single:<grid>" row per topology member:
	// the same cluster count with every member pinned to that one
	// grid's window — the no-geographic-diversity baseline.
	SinglePins bool `json:"single_pins,omitempty"`
	// Member is the default member-cluster scheduler (default fifo).
	Member *PolicySpec `json:"member,omitempty"`
}

// EngineSpec overrides individual simulation-environment knobs; zero
// fields keep the environment's defaults.
type EngineSpec struct {
	// Executors is the cluster size K.
	Executors int `json:"executors,omitempty"`
	// PerJobCap bounds executors per job (-1 removes the prototype cap).
	PerJobCap int `json:"per_job_cap,omitempty"`
	// MoveDelaySec is the executor hand-off latency.
	MoveDelaySec float64 `json:"move_delay_sec,omitempty"`
	// IdleTimeoutSec is the hold-mode idle window.
	IdleTimeoutSec float64 `json:"idle_timeout_sec,omitempty"`
	// Stream runs each cell through the memory-bounded streaming engine
	// (sim.RunStream over a lazy workload source) instead of
	// materializing the batch — the hyperscale mode of DESIGN.md §10.
	// Summaries are identical to the classic engine's; only the
	// common-prefix group sharing is given up. Comparison family only.
	Stream bool `json:"stream,omitempty"`
}

// Known enumerations, used by validation and by error messages. Policy
// kinds are not listed here: the sched.Default registry is their single
// source of truth.
var (
	routerKinds = []string{"round-robin", "lowest-intensity", "forecast-aware"}
	sourceKinds = []string{"synth", "csv", "carbonapi"}
	mixKinds    = []string{"tpch", "alibaba", "both"}
	metricKinds = []string{MetricCarbonReduction, MetricRelativeECT, MetricCostUSD}
)

// Spec-level scale ceilings: sanity bounds on the CLI path, far above
// the paper's scales but low enough to reject a typo'd axis before it
// allocates. (The HTTP service enforces its own much lower ceilings in
// checkLimits — a shared server cannot absorb hyperscale runs.)
const (
	// MaxSpecJobs bounds workload.jobs and each workload.sizes entry.
	MaxSpecJobs = 5_000_000
	// MaxSpecExecutors bounds engine.executors and each
	// clusters[i].executors.
	MaxSpecExecutors = 100_000
)

// Metric names Spec.Metrics selects among.
const (
	MetricCarbonReduction = "carbon_reduction_pct"
	MetricRelativeECT     = "relative_ect"
	MetricCostUSD         = "cost_usd"
)

func oneOf(v string, set []string) bool {
	for _, s := range set {
		if v == s {
			return true
		}
	}
	return false
}

// fieldErr reports a validation failure naming the offending field by
// its JSON path, mirroring experiments.Options.validate's style.
func fieldErr(field, format string, args ...any) error {
	return fmt.Errorf("scenario: %s: %s", field, fmt.Sprintf(format, args...))
}

// validatePolicy delegates the parameter checks to the policy registry
// (the same constructor compilePolicy builds from), relocating the
// registry's relative field paths under this spec's field.
func validatePolicy(field string, p PolicySpec) error {
	if err := sched.Default().Check(p.sched()); err != nil {
		var pe *sched.ParamError
		if errors.As(err, &pe) {
			return fieldErr(field+"."+pe.Field, "%s", pe.Msg)
		}
		return fieldErr(field, "%v", err)
	}
	return nil
}

func validateGrid(field, name string) error {
	if _, err := carbon.GridByName(name); err != nil {
		known := make([]string, 0, 6)
		for _, g := range carbon.Grids() {
			known = append(known, g.Name)
		}
		return fieldErr(field, "unknown grid %q (have %s)", name, strings.Join(known, ", "))
	}
	return nil
}

// Validate checks the spec without resolving carbon sources or running
// anything; Compile calls it first. Errors name the offending field.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fieldErr("name", "missing scenario name")
	}
	if s.Seed < 0 {
		return fieldErr("seed", "negative seed %d", s.Seed)
	}
	if s.Hours < 0 {
		return fieldErr("hours", "negative trace horizon %d hours", s.Hours)
	}
	if s.Trials < 0 {
		return fieldErr("trials", "negative trial count %d", s.Trials)
	}
	if err := s.validateWorkload(); err != nil {
		return err
	}
	if len(s.Grids) > 0 && len(s.Clusters) > 0 {
		return fieldErr("clusters", "grids and clusters are mutually exclusive; declare the topology once")
	}
	seen := map[string]bool{}
	for i, g := range s.Grids {
		field := fmt.Sprintf("grids[%d]", i)
		if err := validateGrid(field, g); err != nil {
			return err
		}
		if seen[g] {
			return fieldErr(field, "duplicate grid %q in grid set", g)
		}
		seen[g] = true
	}
	names := map[string]bool{}
	for i, c := range s.Clusters {
		field := fmt.Sprintf("clusters[%d]", i)
		if c.Grid == "" {
			return fieldErr(field+".grid", "missing grid name")
		}
		src := c.Source
		if src == "" {
			src = "synth"
		}
		switch src {
		case "synth":
			if err := validateGrid(field+".grid", c.Grid); err != nil {
				return err
			}
		case "csv":
			if c.CSV == "" {
				return fieldErr(field+".csv", "csv source needs a file path")
			}
		case "carbonapi":
			if c.URL == "" {
				return fieldErr(field+".url", "carbonapi source needs a base URL")
			}
		default:
			return fieldErr(field+".source", "unknown carbon source %q (have %s)", src, strings.Join(sourceKinds, ", "))
		}
		if c.Executors < 0 {
			return fieldErr(field+".executors", "negative executor count %d", c.Executors)
		}
		if c.Executors > MaxSpecExecutors {
			return fieldErr(field+".executors", "%d exceeds the spec ceiling of %d", c.Executors, MaxSpecExecutors)
		}
		name := c.Name
		if name == "" {
			name = c.Grid
		}
		if names[name] {
			return fieldErr(field+".name", "duplicate cluster name %q", name)
		}
		names[name] = true
	}
	if s.CarbonPriceUSDPerTonne < 0 {
		return fieldErr("carbon_price_usd_per_tonne", "negative carbon price %v", s.CarbonPriceUSDPerTonne)
	}
	if e := s.Engine; e != nil {
		if e.Executors < 0 {
			return fieldErr("engine.executors", "negative executor count %d", e.Executors)
		}
		if e.Executors > MaxSpecExecutors {
			return fieldErr("engine.executors", "%d exceeds the spec ceiling of %d", e.Executors, MaxSpecExecutors)
		}
		if e.MoveDelaySec < 0 {
			return fieldErr("engine.move_delay_sec", "negative hand-off delay %v s", e.MoveDelaySec)
		}
		if e.MoveDelaySec > arrivals.MaxDurationSec {
			return fieldErr("engine.move_delay_sec", "hand-off delay %v s exceeds the ceiling of %v s", e.MoveDelaySec, arrivals.MaxDurationSec)
		}
		if e.Stream && (s.Sweep != nil || s.Federation != nil) {
			// Sweeps and federations lean on batch replay (common-prefix
			// groups, per-member routing of one materialized batch); the
			// flag would be silently ignored there.
			return fieldErr("engine.stream", "the streaming engine applies to comparison scenarios only")
		}
	}
	if s.Sweep != nil && s.Federation != nil {
		return fieldErr("sweep", "sweep and federation are mutually exclusive families")
	}
	switch {
	case s.Sweep != nil:
		return s.validateSweep()
	case s.Federation != nil:
		return s.validateFederation()
	default:
		return s.validateComparison()
	}
}

func (s *Spec) validateWorkload() error {
	w := s.Workload
	if len(w.Classes) > 0 {
		if w.Mix != "" {
			// The mix would be silently shadowed by the per-class mixes.
			return fieldErr("workload.mix", "mix and classes are mutually exclusive; classes carry their own mixes")
		}
	} else {
		if w.Mix == "" {
			return fieldErr("workload.mix", "empty workload (have %s)", strings.Join(mixKinds, ", "))
		}
		if !oneOf(w.Mix, mixKinds) {
			return fieldErr("workload.mix", "unknown workload mix %q (have %s)", w.Mix, strings.Join(mixKinds, ", "))
		}
	}
	names := map[string]bool{}
	for i, c := range w.Classes {
		field := fmt.Sprintf("workload.classes[%d]", i)
		if c.Name == "" {
			return fieldErr(field+".name", "missing class name")
		}
		if names[c.Name] {
			return fieldErr(field+".name", "duplicate class name %q", c.Name)
		}
		names[c.Name] = true
		if !oneOf(c.Mix, mixKinds) {
			return fieldErr(field+".mix", "unknown workload mix %q (have %s)", c.Mix, strings.Join(mixKinds, ", "))
		}
		if c.Weight <= 0 || math.IsNaN(c.Weight) || math.IsInf(c.Weight, 0) {
			return fieldErr(field+".weight", "class weight %v is not positive", c.Weight)
		}
		if c.WorkScale < 0 || math.IsNaN(c.WorkScale) || math.IsInf(c.WorkScale, 0) {
			return fieldErr(field+".work_scale", "work scale %v is not a non-negative finite number", c.WorkScale)
		}
	}
	if s.Workload.Jobs < 0 {
		return fieldErr("workload.jobs", "negative batch size %d", s.Workload.Jobs)
	}
	if s.Workload.Jobs > MaxSpecJobs {
		return fieldErr("workload.jobs", "%d exceeds the spec ceiling of %d", s.Workload.Jobs, MaxSpecJobs)
	}
	for i, n := range s.Workload.Sizes {
		if n <= 0 {
			return fieldErr(fmt.Sprintf("workload.sizes[%d]", i), "non-positive batch size %d", n)
		}
		if n > MaxSpecJobs {
			return fieldErr(fmt.Sprintf("workload.sizes[%d]", i), "%d exceeds the spec ceiling of %d", n, MaxSpecJobs)
		}
	}
	if len(s.Workload.Sizes) > 0 {
		// sizes is the comparison family's multi-size axis; anywhere
		// else it would be silently dropped, and alongside jobs one of
		// the two would silently win.
		if s.Sweep != nil || s.Federation != nil {
			return fieldErr("workload.sizes", "multi-size batches apply to comparison scenarios only")
		}
		if s.Workload.Jobs > 0 {
			return fieldErr("workload.sizes", "jobs and sizes are mutually exclusive; declare the batch once")
		}
	}
	if m := w.MeanInterarrivalSec; m != nil {
		if w.Arrivals != nil {
			// One of the two rates would silently win.
			return fieldErr("workload.mean_interarrival_sec", "mean_interarrival_sec and arrivals are mutually exclusive; declare the arrival process once")
		}
		if *m <= 0 || math.IsNaN(*m) || math.IsInf(*m, 0) {
			return fieldErr("workload.mean_interarrival_sec", "interarrival %v is not positive (omit the field for the 30 s default)", *m)
		}
		if *m > arrivals.MaxDurationSec {
			return fieldErr("workload.mean_interarrival_sec", "interarrival %v s exceeds the ceiling of %v s", *m, arrivals.MaxDurationSec)
		}
	}
	return s.validateArrivals()
}

// validateArrivals checks workload.arrivals, relocating the arrivals
// package's field errors under the spec path the way validatePolicy
// relocates sched.ParamError.
func (s *Spec) validateArrivals() error {
	a := s.Workload.Arrivals
	if a == nil {
		return nil
	}
	if a.MeanSec != nil && (*a.MeanSec <= 0 || math.IsNaN(*a.MeanSec) || math.IsInf(*a.MeanSec, 0)) {
		return fieldErr("workload.arrivals.mean_sec", "interarrival %v is not positive (omit the field for the 30 s default)", *a.MeanSec)
	}
	as := a.arrivals()
	if as.Kind == arrivals.KindCSV {
		if a.CSV == "" {
			return fieldErr("workload.arrivals.csv", "csv kind needs a schedule file path")
		}
		// The schedule is loaded at run time; validate the other fields
		// against a placeholder so misapplied knobs are still rejected.
		as.Times = []float64{0}
	} else if a.CSV != "" {
		return fieldErr("workload.arrivals.csv", "field does not apply to the %s kind", as.Kind)
	}
	if err := as.Validate(); err != nil {
		var fe *arrivals.FieldError
		if errors.As(err, &fe) {
			return fieldErr("workload.arrivals."+fe.Field, "%s", fe.Msg)
		}
		return fieldErr("workload.arrivals", "%v", err)
	}
	return nil
}

func (s *Spec) validateComparison() error {
	if s.Baseline == nil {
		return fieldErr("baseline", "comparison scenarios need a baseline policy")
	}
	if err := validatePolicy("baseline", *s.Baseline); err != nil {
		return err
	}
	if len(s.Policies) == 0 {
		return fieldErr("policies", "comparison scenarios need at least one policy")
	}
	baseName := policyName(*s.Baseline)
	seen := map[string]bool{}
	for i, p := range s.Policies {
		field := fmt.Sprintf("policies[%d]", i)
		if err := validatePolicy(field, p); err != nil {
			return err
		}
		name := policyName(p)
		if seen[name] {
			return fieldErr(field+".name", "duplicate policy name %q", name)
		}
		// A collision with the baseline's name would make the cost
		// table's baseline row shadow the policy's own.
		if name == baseName {
			return fieldErr(field+".name", "policy name %q collides with the baseline", name)
		}
		seen[name] = true
	}
	seenMetrics := map[string]bool{}
	for i, m := range s.Metrics {
		field := fmt.Sprintf("metrics[%d]", i)
		if !oneOf(m, metricKinds) {
			return fieldErr(field, "unknown metric %q (have %s)", m, strings.Join(metricKinds, ", "))
		}
		if m == MetricCostUSD && s.CarbonPriceUSDPerTonne <= 0 {
			return fieldErr(field, "cost_usd needs carbon_price_usd_per_tonne > 0")
		}
		if seenMetrics[m] {
			return fieldErr(field, "duplicate metric %q", m)
		}
		seenMetrics[m] = true
	}
	return nil
}

func (s *Spec) validateSweep() error {
	sw := s.Sweep
	if s.Baseline == nil {
		return fieldErr("baseline", "sweep scenarios need a baseline policy")
	}
	if err := validatePolicy("baseline", *s.Baseline); err != nil {
		return err
	}
	// A sweep runs on exactly one cluster: sweep.grid (synthesized) or
	// a single explicit cluster. Extra axes would be silently dropped,
	// so they are rejected instead.
	if len(s.Grids) > 0 {
		return fieldErr("grids", "sweep scenarios pin their grid via sweep.grid (or a single cluster)")
	}
	if len(s.Clusters) > 1 {
		return fieldErr("clusters", "sweep scenarios run on one cluster, got %d", len(s.Clusters))
	}
	if sw.Grid != "" {
		if len(s.Clusters) > 0 {
			return fieldErr("sweep.grid", "sweep.grid and clusters are mutually exclusive")
		}
		if err := validateGrid("sweep.grid", sw.Grid); err != nil {
			return err
		}
	}
	if len(sw.Values) == 0 {
		return fieldErr("sweep.values", "empty parameter sweep")
	}
	if err := validatePolicy("sweep.policy", sw.Policy); err != nil {
		return err
	}
	param := sched.Default().SweepParam(sw.Policy.Kind)
	if param == "" {
		return fieldErr("sweep.policy.kind", "kind %q has no sweepable parameter (have cap, pcaps)", sw.Policy.Kind)
	}
	// Each bound value must itself be a valid parameter; in particular
	// an out-of-range value would otherwise be rejected only at compile
	// time, without the sweep row's field path.
	for i, v := range sw.Values {
		field := fmt.Sprintf("sweep.values[%d]", i)
		switch param {
		case "gamma":
			if v <= 0 || v > 1 {
				return fieldErr(field, "gamma %v outside (0, 1]", v)
			}
		case "b":
			if v < 1 {
				return fieldErr(field, "CAP quota %v below 1", v)
			}
			if v != math.Trunc(v) {
				// B is an executor count; silently truncating would
				// label the row with a parameter that never ran.
				return fieldErr(field, "CAP quota %v is not an integer", v)
			}
		}
	}
	if len(s.Metrics) > 0 {
		return fieldErr("metrics", "metric selection applies to comparison scenarios only")
	}
	if s.CarbonPriceUSDPerTonne > 0 {
		// Sweep rows are relative (carbon reduction %, relative ECT);
		// a price would be silently dropped, so it is rejected instead.
		return fieldErr("carbon_price_usd_per_tonne", "carbon pricing applies to comparison and federation scenarios only")
	}
	if len(s.Policies) > 0 {
		return fieldErr("policies", "sweep scenarios take their policy from sweep.policy")
	}
	return nil
}

func (s *Spec) validateFederation() error {
	f := s.Federation
	if len(f.Routers) == 0 {
		return fieldErr("federation.routers", "federation scenarios need at least one router")
	}
	if len(f.Topologies) == 0 && len(s.Clusters) == 0 && len(s.Grids) == 0 {
		return fieldErr("federation.routers", "router without clusters: declare clusters, grids, or federation.topologies")
	}
	if len(f.Topologies) > 0 && (len(s.Clusters) > 0 || len(s.Grids) > 0) {
		// Topologies would silently win; the topology must be declared
		// exactly once.
		return fieldErr("federation.topologies", "topologies and grids/clusters are mutually exclusive; declare the topology once")
	}
	for ti, topo := range f.Topologies {
		if len(topo) == 0 {
			return fieldErr(fmt.Sprintf("federation.topologies[%d]", ti), "empty topology")
		}
		seen := map[string]bool{}
		for gi, g := range topo {
			field := fmt.Sprintf("federation.topologies[%d][%d]", ti, gi)
			if err := validateGrid(field, g); err != nil {
				return err
			}
			if seen[g] {
				return fieldErr(field, "duplicate grid %q in topology", g)
			}
			seen[g] = true
		}
	}
	rnames := map[string]bool{}
	for i, r := range f.Routers {
		field := fmt.Sprintf("federation.routers[%d]", i)
		if r.Kind == "" {
			return fieldErr(field+".kind", "missing router kind (have %s)", strings.Join(routerKinds, ", "))
		}
		// "single:<grid>" names the synthetic pin rows; a router reusing
		// the prefix would collide in the per-cell results map and
		// silently shadow a pin's numbers.
		if strings.HasPrefix(r.Name, "single:") {
			return fieldErr(field+".name", "prefix \"single:\" is reserved for the pinned baselines")
		}
		if !oneOf(r.Kind, routerKinds) {
			return fieldErr(field+".kind", "unknown router kind %q (have %s)", r.Kind, strings.Join(routerKinds, ", "))
		}
		if r.Policy != nil {
			if err := validatePolicy(field+".policy", *r.Policy); err != nil {
				return err
			}
		}
		name := r.Name
		if name == "" {
			name = "fed:" + r.Kind
		}
		if rnames[name] {
			return fieldErr(field+".name", "duplicate router name %q", name)
		}
		rnames[name] = true
	}
	if f.Member != nil {
		if err := validatePolicy("federation.member", *f.Member); err != nil {
			return err
		}
	}
	if len(s.Metrics) > 0 {
		return fieldErr("metrics", "metric selection applies to comparison scenarios only")
	}
	if len(s.Policies) > 0 || s.Baseline != nil {
		return fieldErr("policies", "federation scenarios take member policies from federation.member and federation.routers[].policy")
	}
	return nil
}
