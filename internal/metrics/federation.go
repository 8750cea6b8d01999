package metrics

import "pcaps/internal/result"

// FederationSummary is the cross-cluster account of one federated run.
type FederationSummary struct {
	// CarbonGrams is the gCO2eq emitted across every member cluster.
	CarbonGrams float64
	// Makespan is the federation-wide completion time (clusters run in
	// parallel, so the slowest member defines it).
	Makespan float64
	// AvgJCT is the mean job completion time across every routed job.
	AvgJCT float64
}

// FederationColumns is the typed column set of a federation comparison
// table: one row per routing policy, carbon and completion metrics
// rendered against a round-robin baseline. The display formats reproduce
// the pcapsim federation artifact's fixed-width layout.
func FederationColumns() []result.Column {
	return []result.Column{
		{Name: "policy", Kind: result.KindString, Header: "policy", HeaderFormat: "  %-22s", Format: "  %-22s"},
		{Name: "gco2eq", Kind: result.KindFloat, Prec: 1, Header: "gCO2eq", HeaderFormat: " %12s", Format: " %12.1f"},
		{Name: "vs_rr_pct", Kind: result.KindFloat, Prec: 1, Header: "vs RR", HeaderFormat: " %9s", Format: " %+8.1f%%"},
		{Name: "makespan_sec", Kind: result.KindFloat, Header: "makespan", HeaderFormat: " %11s", Format: " %9.0f s"},
		{Name: "avg_jct_sec", Kind: result.KindFloat, Header: "avg JCT", HeaderFormat: " %10s", Format: " %8.0f s"},
	}
}

// Row renders the summary as one FederationColumns table row, with the
// carbon delta taken against the given baseline summary.
func (s FederationSummary) Row(policy string, baseline FederationSummary) []result.Cell {
	return []result.Cell{
		result.Str(policy),
		result.Float(s.CarbonGrams),
		result.Float(PercentChange(s.CarbonGrams, baseline.CarbonGrams)),
		result.Float(s.Makespan),
		result.Float(s.AvgJCT),
	}
}
