package experiments

import (
	"pcaps/internal/result"
	"pcaps/internal/scenario"
	"pcaps/internal/sched"
	"pcaps/internal/workload"
)

// The per-grid comparisons are declared as scenario specs and compiled
// through internal/scenario's comparison family: for each grid, trials
// of the carbon-aware policy set vs a baseline across the 25/50/100-job
// batch sizes, reporting mean carbon reduction and relative ECT. The
// golden tests pin the compiled artifacts to the hand-written runners'
// bytes.

// perGridSpec assembles the shared comparison shape from the run
// options.
func perGridSpec(opt Options, name string, proto bool, mix workload.Mix,
	baseline scenario.PolicySpec, policies []scenario.PolicySpec, paperNote string) scenario.Spec {
	return scenario.Spec{
		Name:     name,
		Seed:     opt.Seed,
		Trials:   opt.Trials,
		Proto:    proto,
		Grids:    opt.Grids,
		Workload: scenario.WorkloadSpec{Mix: mix.String(), Jobs: opt.Jobs},
		Baseline: &baseline,
		Policies: policies,
		Notes:    []string{paperNote},
	}
}

// fig10 regenerates the prototype per-grid comparison (Fig. 10): PCAPS,
// CAP, and Decima vs the Spark/Kubernetes default across the six grids.
func fig10(opt Options) (*result.Artifact, error) {
	return runSpec(opt, perGridSpec(opt, "fig10", true, workload.MixBoth,
		scenario.PolicySpec{Kind: "kube-default"},
		[]scenario.PolicySpec{
			{Name: "Decima", Kind: "decima"},
			{Name: "CAP", Kind: "cap", B: sched.Int(20), Inner: &scenario.PolicySpec{Kind: "kube-default"}},
			{Name: "PCAPS", Kind: "pcaps", Gamma: sched.Float(0.5), Inner: &scenario.PolicySpec{Kind: "decima"}},
		},
		"paper: variable grids (CAISO, ON, DE) yield the largest reductions and ECT costs; flat ZA yields minimal change; Decima is ~flat everywhere\n"))
}

// fig14 regenerates the simulator per-grid comparison (Fig. 14): PCAPS,
// CAP-FIFO, and Decima vs FIFO.
func fig14(opt Options) (*result.Artifact, error) {
	return runSpec(opt, perGridSpec(opt, "fig14", false, workload.MixTPCH,
		scenario.PolicySpec{Kind: "fifo"},
		[]scenario.PolicySpec{
			{Name: "Decima", Kind: "decima"},
			{Name: "CAP-FIFO", Kind: "cap", B: sched.Int(20), Inner: &scenario.PolicySpec{Kind: "fifo"}},
			{Name: "PCAPS", Kind: "pcaps", Gamma: sched.Float(0.5), Inner: &scenario.PolicySpec{Kind: "decima"}},
		},
		"paper: same grid ordering as Fig 10, with Decima's baseline reduction higher than in the prototype (A.1.2)\n"))
}
