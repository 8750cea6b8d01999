package experiments

import (
	"pcaps/internal/result"
	"pcaps/internal/scenario"
	"pcaps/internal/sched"
)

// fedTopologies resolves the multi-grid topology list: an explicit
// -grids subset becomes the single topology (a lone grid degenerates to
// a one-cluster federation where every router agrees — the restriction
// is honored rather than silently widened back to the default family);
// without a subset, a default family spanning the paper's grid set.
// Options.validate has already rejected duplicate grid names, so the
// subset is usable as-is.
func fedTopologies(opt Options) [][]string {
	if len(opt.Grids) > 0 {
		return [][]string{opt.Grids}
	}
	if opt.Fast {
		return [][]string{{"CAISO", "ON", "DE"}}
	}
	return [][]string{
		{"CAISO", "ON", "DE"},
		{"PJM", "NSW", "ZA"},
		{"PJM", "CAISO", "ON", "DE", "NSW", "ZA"},
	}
}

// federationTable regenerates the federation comparison, declared as a
// scenario spec: for each multi-grid topology, single-grid pins vs
// federated routing policies, every run over the identical job batch
// and per-grid trace windows. Members run FIFO except the forecast+CAP
// row, whose member scheduler is CAP-FIFO.
func federationTable(opt Options) (*result.Artifact, error) {
	return runSpec(opt, scenario.Spec{
		Name:     "federation",
		Seed:     opt.Seed,
		Trials:   opt.Trials,
		Workload: scenario.WorkloadSpec{Mix: "tpch", Jobs: opt.Jobs},
		Federation: &scenario.FederationSpec{
			Topologies: fedTopologies(opt),
			SinglePins: true,
			Member:     &scenario.PolicySpec{Kind: "fifo"},
			Routers: []scenario.RouterSpec{
				{Name: "fed:round-robin", Kind: "round-robin"},
				{Name: "fed:lowest-intensity", Kind: "lowest-intensity"},
				{Name: "fed:forecast-aware", Kind: "forecast-aware"},
				{Name: "fed:forecast+CAP", Kind: "forecast-aware",
					Policy: &scenario.PolicySpec{Kind: "cap", B: sched.Int(20), Inner: &scenario.PolicySpec{Kind: "fifo"}}},
			},
		},
		Notes: []string{
			"(single:<grid> pins every member cluster to one grid's window — the no-geographic-diversity baseline;\n",
			" fed:* route across the scenario's grids. Members run FIFO except fed:forecast+CAP, which runs CAP-FIFO.)\n",
		},
	})
}
