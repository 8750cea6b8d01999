package sim_test

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// TestRunGroupMatchesSequential is the fork-determinism gate for the
// common-prefix group runner: for every (seed, policy group, cluster
// regime), RunGroup's results must be byte-identical — compared as
// canonical JSON, every field including per-job JCTs, usage timelines,
// and deferral counters — to simulating each policy from scratch with
// its own fresh cluster. This is the contract that lets the experiment
// runners group sweep cells without changing a single published digit.
func TestRunGroupMatchesSequential(t *testing.T) {
	t.Parallel()

	// A trace with a pronounced swing so carbon-aware wrappers actually
	// diverge from their inner policies mid-run (a flat trace would let
	// every variant ride the shared prefix to completion).
	mkTrace := func(t *testing.T) *carbon.Trace {
		t.Helper()
		vals := make([]float64, 600)
		for i := range vals {
			vals[i] = 300 + 250*math.Sin(float64(i)/10)
		}
		tr, err := carbon.New("swing", 60, vals)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	type group struct {
		name string
		mk   func(seed int64) []sim.Scheduler
	}
	groups := []group{
		{"fifo+cap", func(seed int64) []sim.Scheduler {
			return []sim.Scheduler{&sched.FIFO{}, sched.NewCAP(&sched.FIFO{}, 20)}
		}},
		{"wfair+cap", func(seed int64) []sim.Scheduler {
			return []sim.Scheduler{&sched.WeightedFair{}, sched.NewCAP(&sched.WeightedFair{}, 20)}
		}},
		{"decima+pcaps-sweep", func(seed int64) []sim.Scheduler {
			scheds := []sim.Scheduler{sched.NewDecima(seed)}
			for _, g := range []float64{0.25, 0.5, 0.9} {
				scheds = append(scheds, sched.NewPCAPS(sched.NewDecima(seed), g, seed))
			}
			return scheds
		}},
		{"decima+cap+pcaps", func(seed int64) []sim.Scheduler {
			return []sim.Scheduler{
				sched.NewDecima(seed),
				sched.NewCAP(sched.NewDecima(seed), 20),
				sched.NewPCAPS(sched.NewDecima(seed), 0.5, seed),
			}
		}},
	}
	regimes := []struct {
		name string
		cfg  func(tr *carbon.Trace, seed int64) sim.Config
	}{
		{"pool", func(tr *carbon.Trace, seed int64) sim.Config {
			return sim.Config{NumExecutors: 12, Trace: tr, Seed: seed}
		}},
		{"hold", func(tr *carbon.Trace, seed int64) sim.Config {
			return sim.Config{NumExecutors: 12, Trace: tr, Seed: seed,
				HoldExecutors: true, IdleTimeout: 60}
		}},
	}

	for _, seed := range []int64{1, 7, 42} {
		for _, g := range groups {
			for _, reg := range regimes {
				name := fmt.Sprintf("%s/%s/seed%d", g.name, reg.name, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					tr := mkTrace(t)
					sorted := workload.Batch(workload.BatchConfig{
						N: 12, MeanInterarrival: 45, Mix: workload.MixTPCH, Seed: seed,
					})
					// The reversed batch is not sorted by arrival: Run admits
					// it in arrival order and a fork clones jobs not yet
					// admitted.
					reversed := slices.Clone(sorted)
					slices.Reverse(reversed)
					cfg := reg.cfg(tr, seed)
					for _, jobs := range [][]*dag.Job{sorted, reversed} {
						got, err := sim.RunGroup(cfg, jobs, g.mk(seed))
						if err != nil {
							t.Fatalf("RunGroup: %v", err)
						}
						// Fresh scheduler instances for the from-scratch runs:
						// the group consumed the first set's internal state.
						for i, s := range g.mk(seed) {
							want, err := sim.Run(cfg, jobs, s)
							if err != nil {
								t.Fatalf("Run(%s): %v", s.Name(), err)
							}
							gb, wb := asJSON(t, got[i]), asJSON(t, want)
							if gb != wb {
								t.Errorf("first job %d, variant %d (%s): grouped result differs from from-scratch run\n--- group ---\n%s\n--- scratch ---\n%s",
									jobs[0].ID, i, s.Name(), gb, wb)
							}
						}
					}
				})
			}
		}
	}
}

// TestRunGroupSingleAndFallback pins the degenerate paths: a one-element
// group and a non-forkable config (failure injection on) must both fall
// back to plain sequential runs.
func TestRunGroupSingleAndFallback(t *testing.T) {
	t.Parallel()
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 300
	}
	tr, err := carbon.New("flat", 60, vals)
	if err != nil {
		t.Fatal(err)
	}
	jobs := workload.Batch(workload.BatchConfig{N: 6, MeanInterarrival: 30, Mix: workload.MixTPCH, Seed: 3})

	single := sim.Config{NumExecutors: 8, Trace: tr, Seed: 3}
	got, err := sim.RunGroup(single, jobs, []sim.Scheduler{&sched.FIFO{}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(single, jobs, &sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if asJSON(t, got[0]) != asJSON(t, want) {
		t.Error("single-scheduler group differs from plain Run")
	}

	unforkable := sim.Config{NumExecutors: 8, Trace: tr, Seed: 3, FailureRate: 0.05}
	got, err = sim.RunGroup(unforkable, jobs, []sim.Scheduler{&sched.FIFO{}, sched.NewCAP(&sched.FIFO{}, 20)})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []sim.Scheduler{&sched.FIFO{}, sched.NewCAP(&sched.FIFO{}, 20)} {
		want, err := sim.Run(unforkable, jobs, s)
		if err != nil {
			t.Fatal(err)
		}
		if asJSON(t, got[i]) != asJSON(t, want) {
			t.Errorf("fallback variant %d differs from plain Run", i)
		}
	}
}

func asJSON(t *testing.T, r *sim.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
