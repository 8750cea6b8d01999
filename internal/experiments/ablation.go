package experiments

import (
	"pcaps/internal/ablation"
	"pcaps/internal/result"
	"pcaps/internal/scenario"
	"pcaps/internal/sched"
	"pcaps/internal/seed"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// ablationReport runs the DESIGN.md ablation suite: threshold shape,
// importance signal, parallelism scaling, forecast error, and the
// suspend-resume baseline, all against carbon-agnostic Decima on the DE
// grid.
func ablationReport(opt Options) (*result.Artifact, error) {
	e := newEnv(opt.scoped("DE"))
	n := opt.Jobs
	if n <= 0 {
		n = 50
	}
	if opt.Fast {
		n = 25
	}
	runSeed := e.opt.Seed
	jobs := batch(n, 30, workload.MixTPCH, runSeed)
	tr := scenario.TrialWindow(e.traces["DE"], 60+n, seed.Derive(runSeed, "DE", int64(n)))
	cfg := scenario.PaperSimConfig(false, tr, runSeed)
	gamma := 0.6
	mk := func() sched.Probabilistic { return sched.NewDecima(runSeed) }
	variants := []sim.Scheduler{
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, Seed: runSeed},
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, Shape: ablation.ShapeLinear, Seed: runSeed},
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, Shape: ablation.ShapeStep, Seed: runSeed},
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, UniformImportance: true, Seed: runSeed},
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, DisableParallelismScaling: true, Seed: runSeed},
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, BoundsError: 0.05, Seed: runSeed},
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, BoundsError: 0.15, Seed: runSeed},
		&ablation.SuspendResume{Inner: mk(), Theta: 0.5},
	}
	outs, err := ablation.Compare(cfg, jobs, sched.NewDecima(runSeed), variants)
	if err != nil {
		return nil, err
	}
	a := result.New().Add(ablation.Table(outs))
	a.Textf("(γ=%.1f, %d TPC-H jobs, DE grid; baseline row is carbon-agnostic Decima)\n"+
		"reading: exponential Ψγ with the precedence signal should pay the least ECT/JCT per unit of carbon saved;\n"+
		"importance-blind and suspend-resume variants save carbon but defer bottlenecks\n", gamma, n)
	return a, nil
}
