package scenario

import (
	"strings"
	"testing"

	"pcaps/internal/sched"
)

// validComparison returns a minimal passing comparison spec tests
// mutate into invalid shapes.
func validComparison() Spec {
	return Spec{
		Name:     "t",
		Grids:    []string{"DE"},
		Workload: WorkloadSpec{Mix: "tpch", Jobs: 8},
		Baseline: &PolicySpec{Kind: "fifo"},
		Policies: []PolicySpec{{Kind: "pcaps"}},
	}
}

// TestValidateRejects is the table-driven reject suite: every invalid
// spec must fail validation with an error naming the offending field,
// mirroring experiments.Options.validate's style — a typo surfaces as a
// clear message before any simulation starts, never as a nil-trace
// panic inside a worker.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub []string // all must appear in the error text
	}{
		{"missing name", func(s *Spec) { s.Name = "" }, []string{"name", "missing scenario name"}},
		{"unknown grid", func(s *Spec) { s.Grids = []string{"BOGUS"} }, []string{`grids[0]`, `unknown grid "BOGUS"`}},
		{"duplicate grid", func(s *Spec) { s.Grids = []string{"DE", "DE"} }, []string{`grids[1]`, `duplicate grid "DE"`}},
		{"empty workload", func(s *Spec) { s.Workload.Mix = "" }, []string{"workload.mix", "empty workload"}},
		{"unknown mix", func(s *Spec) { s.Workload.Mix = "spark" }, []string{"workload.mix", `unknown workload mix "spark"`}},
		{"negative jobs", func(s *Spec) { s.Workload.Jobs = -3 }, []string{"workload.jobs", "negative batch size"}},
		{"negative seed", func(s *Spec) { s.Seed = -1 }, []string{"seed", "negative seed"}},
		{"negative horizon", func(s *Spec) { s.Hours = -24 }, []string{"hours", "negative trace horizon"}},
		{"negative trials", func(s *Spec) { s.Trials = -1 }, []string{"trials", "negative trial count"}},
		{"grids and clusters", func(s *Spec) {
			s.Clusters = []ClusterSpec{{Grid: "DE"}}
		}, []string{"clusters", "mutually exclusive"}},
		{"duplicate cluster names", func(s *Spec) {
			s.Grids = nil
			s.Clusters = []ClusterSpec{
				{Name: "eu", Grid: "DE"},
				{Name: "eu", Grid: "CAISO"},
			}
		}, []string{"clusters[1].name", `duplicate cluster name "eu"`}},
		{"cluster grid unknown for synth", func(s *Spec) {
			s.Grids = nil
			s.Clusters = []ClusterSpec{{Grid: "NOPE"}}
		}, []string{"clusters[0].grid", `unknown grid "NOPE"`}},
		{"csv source without path", func(s *Spec) {
			s.Grids = nil
			s.Clusters = []ClusterSpec{{Grid: "DE", Source: "csv"}}
		}, []string{"clusters[0].csv", "file path"}},
		{"carbonapi source without url", func(s *Spec) {
			s.Grids = nil
			s.Clusters = []ClusterSpec{{Grid: "DE", Source: "carbonapi"}}
		}, []string{"clusters[0].url", "base URL"}},
		{"unknown source", func(s *Spec) {
			s.Grids = nil
			s.Clusters = []ClusterSpec{{Grid: "DE", Source: "psychic"}}
		}, []string{"clusters[0].source", `unknown carbon source "psychic"`}},
		{"missing baseline", func(s *Spec) { s.Baseline = nil }, []string{"baseline", "need a baseline"}},
		{"no policies", func(s *Spec) { s.Policies = nil }, []string{"policies", "at least one policy"}},
		{"unknown policy kind", func(s *Spec) {
			s.Policies = []PolicySpec{{Kind: "lrucache"}}
		}, []string{"policies[0].kind", `unknown policy kind "lrucache"`}},
		{"duplicate policy name", func(s *Spec) {
			s.Policies = []PolicySpec{{Name: "A", Kind: "fifo"}, {Name: "A", Kind: "decima"}}
		}, []string{"policies[1].name", `duplicate policy name "A"`}},
		{"pcaps wrapping non-probabilistic", func(s *Spec) {
			s.Policies = []PolicySpec{{Kind: "pcaps", Inner: &PolicySpec{Kind: "fifo"}}}
		}, []string{"policies[0].inner.kind", "probabilistic"}},
		{"inner on plain policy", func(s *Spec) {
			s.Policies = []PolicySpec{{Kind: "fifo", Inner: &PolicySpec{Kind: "fifo"}}}
		}, []string{"policies[0].inner", "takes no inner policy"}},
		{"gamma out of range", func(s *Spec) {
			s.Policies = []PolicySpec{{Kind: "pcaps", Gamma: sched.Float(1.5)}}
		}, []string{"policies[0].gamma", "outside"}},
		// Explicit zeros are errors, never a silent rebind to the default
		// (the pointer params exist to make that distinction).
		{"explicit zero gamma", func(s *Spec) {
			s.Policies = []PolicySpec{{Kind: "pcaps", Gamma: sched.Float(0)}}
		}, []string{"policies[0].gamma", "gamma 0 outside (0, 1]"}},
		{"explicit zero b", func(s *Spec) {
			s.Policies = []PolicySpec{{Kind: "cap", B: sched.Int(0)}}
		}, []string{"policies[0].b", "CAP quota 0 below 1"}},
		{"unknown metric", func(s *Spec) { s.Metrics = []string{"qps"} }, []string{"metrics[0]", `unknown metric "qps"`}},
		{"cost metric without price", func(s *Spec) {
			s.Metrics = []string{MetricCostUSD}
		}, []string{"metrics[0]", "carbon_price_usd_per_tonne"}},
		{"negative price", func(s *Spec) { s.CarbonPriceUSDPerTonne = -5 }, []string{"carbon_price_usd_per_tonne", "negative carbon price"}},
		{"negative move delay", func(s *Spec) {
			s.Engine = &EngineSpec{MoveDelaySec: -5}
		}, []string{"engine.move_delay_sec", "negative hand-off delay"}},
		{"sweep without values", func(s *Spec) {
			s.Grids, s.Policies = nil, nil
			s.Sweep = &SweepSpec{Policy: PolicySpec{Kind: "cap"}}
		}, []string{"sweep.values", "empty parameter sweep"}},
		{"sweep of unsweepable kind", func(s *Spec) {
			s.Grids, s.Policies = nil, nil
			s.Sweep = &SweepSpec{Values: []float64{1}, Policy: PolicySpec{Kind: "fifo"}}
		}, []string{"sweep.policy.kind", "no sweepable parameter"}},
		{"sweep alongside grids", func(s *Spec) {
			s.Policies = nil
			s.Sweep = &SweepSpec{Values: []float64{2}, Policy: PolicySpec{Kind: "cap"}}
		}, []string{"grids", "sweep.grid"}},
		{"sweep gamma value out of range", func(s *Spec) {
			s.Grids, s.Policies = nil, nil
			s.Sweep = &SweepSpec{Values: []float64{0.5, 2.5}, Policy: PolicySpec{Kind: "pcaps"}}
		}, []string{"sweep.values[1]", "outside (0, 1]"}},
		{"sweep zero value would run the default", func(s *Spec) {
			s.Grids, s.Policies = nil, nil
			s.Sweep = &SweepSpec{Values: []float64{0}, Policy: PolicySpec{Kind: "cap"}}
		}, []string{"sweep.values[0]", "below 1"}},
		{"policy name collides with baseline", func(s *Spec) {
			s.Policies = []PolicySpec{{Name: "fifo", Kind: "cap"}}
		}, []string{"policies[0].name", "collides with the baseline"}},
		{"router without clusters", func(s *Spec) {
			s.Grids = nil
			s.Baseline = nil
			s.Policies = nil
			s.Federation = &FederationSpec{Routers: []RouterSpec{{Kind: "round-robin"}}}
		}, []string{"federation.routers", "router without clusters"}},
		{"federation without routers", func(s *Spec) {
			s.Baseline = nil
			s.Policies = nil
			s.Federation = &FederationSpec{}
		}, []string{"federation.routers", "at least one router"}},
		{"unknown router kind", func(s *Spec) {
			s.Baseline = nil
			s.Policies = nil
			s.Federation = &FederationSpec{Routers: []RouterSpec{{Kind: "sticky"}}}
		}, []string{"federation.routers[0].kind", `unknown router kind "sticky"`}},
		{"empty topology", func(s *Spec) {
			s.Grids, s.Baseline, s.Policies = nil, nil, nil
			s.Federation = &FederationSpec{
				Topologies: [][]string{{}},
				Routers:    []RouterSpec{{Kind: "round-robin"}},
			}
		}, []string{"federation.topologies[0]", "empty topology"}},
		{"topologies alongside grids", func(s *Spec) {
			s.Baseline, s.Policies = nil, nil
			s.Federation = &FederationSpec{
				Topologies: [][]string{{"ON"}},
				Routers:    []RouterSpec{{Kind: "round-robin"}},
			}
		}, []string{"federation.topologies", "mutually exclusive"}},
		{"reserved router name", func(s *Spec) {
			s.Baseline, s.Policies = nil, nil
			s.Federation = &FederationSpec{
				SinglePins: true,
				Routers:    []RouterSpec{{Name: "single:DE", Kind: "lowest-intensity"}},
			}
		}, []string{"federation.routers[0].name", "reserved"}},
		{"gamma on non-pcaps policy", func(s *Spec) {
			s.Policies = []PolicySpec{{Kind: "cap", Gamma: sched.Float(0.9)}}
		}, []string{"policies[0].gamma", "takes no gamma"}},
		{"b on non-cap policy", func(s *Spec) {
			s.Policies = []PolicySpec{{Kind: "pcaps", B: sched.Int(5)}}
		}, []string{"policies[0].b", "takes no CAP quota"}},
		{"knobs on pcaps inner", func(s *Spec) {
			s.Policies = []PolicySpec{{Kind: "pcaps", Inner: &PolicySpec{Kind: "decima", Gamma: sched.Float(0.9)}}}
		}, []string{"policies[0].inner", "only a kind"}},
		{"duplicate metric", func(s *Spec) {
			s.Metrics = []string{MetricRelativeECT, MetricRelativeECT}
		}, []string{"metrics[1]", "duplicate metric"}},
		{"sweep and federation", func(s *Spec) {
			s.Sweep = &SweepSpec{Values: []float64{1}, Policy: PolicySpec{Kind: "cap"}}
			s.Federation = &FederationSpec{Routers: []RouterSpec{{Kind: "round-robin"}}}
		}, []string{"sweep", "mutually exclusive"}},
		// An explicit zero interarrival is an error, never a silent rebind
		// to the 30-second default (the field is a pointer so the two are
		// distinguishable).
		{"explicit zero interarrival", func(s *Spec) {
			zero := 0.0
			s.Workload.MeanInterarrivalSec = &zero
		}, []string{"workload.mean_interarrival_sec", "not positive"}},
		{"negative interarrival", func(s *Spec) {
			neg := -3.0
			s.Workload.MeanInterarrivalSec = &neg
		}, []string{"workload.mean_interarrival_sec", "not positive"}},
		{"interarrival alongside arrivals", func(s *Spec) {
			m := 30.0
			s.Workload.MeanInterarrivalSec = &m
			s.Workload.Arrivals = &ArrivalsSpec{Kind: "constant", RPS: 1}
		}, []string{"workload.mean_interarrival_sec", "mutually exclusive"}},
		{"unknown arrival kind", func(s *Spec) {
			s.Workload.Arrivals = &ArrivalsSpec{Kind: "poison"}
		}, []string{"workload.arrivals.kind", `unknown arrival kind "poison"`}},
		{"constant without rps", func(s *Spec) {
			s.Workload.Arrivals = &ArrivalsSpec{Kind: "constant"}
		}, []string{"workload.arrivals.rps", "positive rate"}},
		{"burst without burst_sec", func(s *Spec) {
			s.Workload.Arrivals = &ArrivalsSpec{Kind: "burst", RPS: 1, PeakRPS: 4, PeriodSec: 100}
		}, []string{"workload.arrivals.burst_sec", "positive burst duration"}},
		{"peak below base", func(s *Spec) {
			s.Workload.Arrivals = &ArrivalsSpec{Kind: "ramp", RPS: 4, PeakRPS: 1, PeriodSec: 100}
		}, []string{"workload.arrivals.peak_rps", "below base rate"}},
		{"knob on wrong arrival kind", func(s *Spec) {
			s.Workload.Arrivals = &ArrivalsSpec{Kind: "poisson", RPS: 2}
		}, []string{"workload.arrivals.rps", "does not apply"}},
		{"csv arrival without path", func(s *Spec) {
			s.Workload.Arrivals = &ArrivalsSpec{Kind: "csv"}
		}, []string{"workload.arrivals.csv", "schedule file path"}},
		{"csv path on generated kind", func(s *Spec) {
			s.Workload.Arrivals = &ArrivalsSpec{Kind: "diurnal", RPS: 1, PeakRPS: 2, PeriodSec: 60, CSV: "x.csv"}
		}, []string{"workload.arrivals.csv", "does not apply"}},
		{"explicit zero mean_sec", func(s *Spec) {
			zero := 0.0
			s.Workload.Arrivals = &ArrivalsSpec{Kind: "poisson", MeanSec: &zero}
		}, []string{"workload.arrivals.mean_sec", "not positive"}},
		{"interarrival past the ceiling", func(s *Spec) {
			huge := 1e308
			s.Workload.MeanInterarrivalSec = &huge
		}, []string{"workload.mean_interarrival_sec", "exceeds the ceiling"}},
		{"mean_sec past the ceiling", func(s *Spec) {
			huge := 1e308
			s.Workload.Arrivals = &ArrivalsSpec{Kind: "poisson", MeanSec: &huge}
		}, []string{"workload.arrivals.mean_sec", "exceeds the ceiling"}},
		{"constant rate below the ceiling's", func(s *Spec) {
			s.Workload.Arrivals = &ArrivalsSpec{Kind: "constant", RPS: 1e-308}
		}, []string{"workload.arrivals.rps", "ceiling"}},
		{"move delay past the ceiling", func(s *Spec) {
			s.Engine = &EngineSpec{MoveDelaySec: 1e308}
		}, []string{"engine.move_delay_sec", "exceeds the ceiling"}},
		{"mix alongside classes", func(s *Spec) {
			s.Workload.Classes = []ClassSpec{{Name: "a", Mix: "tpch", Weight: 1}}
		}, []string{"workload.mix", "mutually exclusive"}},
		{"class without name", func(s *Spec) {
			s.Workload.Mix = ""
			s.Workload.Classes = []ClassSpec{{Mix: "tpch", Weight: 1}}
		}, []string{"workload.classes[0].name", "missing class name"}},
		{"duplicate class name", func(s *Spec) {
			s.Workload.Mix = ""
			s.Workload.Classes = []ClassSpec{
				{Name: "a", Mix: "tpch", Weight: 1},
				{Name: "a", Mix: "alibaba", Weight: 1},
			}
		}, []string{"workload.classes[1].name", `duplicate class name "a"`}},
		{"class with unknown mix", func(s *Spec) {
			s.Workload.Mix = ""
			s.Workload.Classes = []ClassSpec{{Name: "a", Mix: "spark", Weight: 1}}
		}, []string{"workload.classes[0].mix", `unknown workload mix "spark"`}},
		{"class with zero weight", func(s *Spec) {
			s.Workload.Mix = ""
			s.Workload.Classes = []ClassSpec{{Name: "a", Mix: "tpch"}}
		}, []string{"workload.classes[0].weight", "not positive"}},
		{"class with negative work scale", func(s *Spec) {
			s.Workload.Mix = ""
			s.Workload.Classes = []ClassSpec{{Name: "a", Mix: "tpch", Weight: 1, WorkScale: -2}}
		}, []string{"workload.classes[0].work_scale", "non-negative"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validComparison()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("invalid spec accepted: %+v", s)
			}
			for _, sub := range tc.wantSub {
				if !strings.Contains(err.Error(), sub) {
					t.Fatalf("error %q does not name %q", err, sub)
				}
			}
			if !strings.HasPrefix(err.Error(), "scenario: ") {
				t.Fatalf("error %q missing package prefix", err)
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	specs := map[string]Spec{
		"comparison": validComparison(),
		"sweep": {
			Name:     "s",
			Workload: WorkloadSpec{Mix: "tpch"},
			Baseline: &PolicySpec{Kind: "fifo"},
			Sweep:    &SweepSpec{Grid: "CAISO", Values: []float64{0.5, 1}, Policy: PolicySpec{Kind: "pcaps"}},
		},
		"federation": {
			Name:     "f",
			Workload: WorkloadSpec{Mix: "tpch"},
			Federation: &FederationSpec{
				Topologies: [][]string{{"DE", "ON"}},
				SinglePins: true,
				Routers:    []RouterSpec{{Kind: "round-robin"}, {Kind: "forecast-aware"}},
			},
		},
		"burst arrivals with classes": {
			Name: "b",
			Workload: WorkloadSpec{
				Jobs:     8,
				Arrivals: &ArrivalsSpec{Kind: "burst", RPS: 0.5, PeakRPS: 4, PeriodSec: 300, BurstSec: 30},
				Classes: []ClassSpec{
					{Name: "interactive", Mix: "tpch", Weight: 3, WorkScale: 0.5},
					{Name: "production", Mix: "alibaba", Weight: 1, WorkScale: 2},
				},
			},
			Baseline: &PolicySpec{Kind: "fifo"},
			Policies: []PolicySpec{{Kind: "pcaps"}},
		},
		"csv arrivals": {
			Name:     "csv",
			Workload: WorkloadSpec{Mix: "tpch", Jobs: 4, Arrivals: &ArrivalsSpec{Kind: "csv", CSV: "sched.csv"}},
			Baseline: &PolicySpec{Kind: "fifo"},
			Policies: []PolicySpec{{Kind: "pcaps"}},
		},
		"explicit clusters": {
			Name: "c",
			Clusters: []ClusterSpec{
				{Name: "eu", Grid: "DE"},
				{Name: "file", Grid: "X", Source: "csv", CSV: "x.csv"},
				{Name: "live", Grid: "DE", Source: "carbonapi", URL: "http://localhost:1"},
			},
			Workload: WorkloadSpec{Mix: "both", Jobs: 4},
			Baseline: &PolicySpec{Kind: "fifo"},
			Policies: []PolicySpec{{Kind: "cap", B: sched.Int(10)}},
		},
	}
	for name, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s spec rejected: %v", name, err)
		}
	}
}
