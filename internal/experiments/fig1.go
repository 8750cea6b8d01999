package experiments

import (
	"fmt"
	"strings"

	"pcaps/internal/core"
	"pcaps/internal/dag"
	"pcaps/internal/metrics"
	"pcaps/internal/optimal"
	"pcaps/internal/result"
)

func init() { register("fig1", "motivating example: four policies on one DAG (§1, Fig 1)", fig1) }

// motivatingJob is the Fig. 1 example: a fork-join DAG whose long
// green→purple chain must be prioritized to finish early. The short side
// branches carry lower stage IDs, so the FIFO baseline runs them first
// and delays the bottleneck chain — the pathology the figure motivates.
// Stage durations are in hours (slots).
func motivatingJob() *dag.Job {
	b := dag.NewBuilder(0, "motivating")
	src := b.Stage("src", 1, 1)
	sides := make([]int, 6)
	for i := range sides {
		sides[i] = b.Stage(fmt.Sprintf("side%d", i), 1, 2)
	}
	green := b.Stage("green", 1, 3)   // bottleneck chain, part 1
	purple := b.Stage("purple", 1, 3) // bottleneck chain, part 2
	sink := b.Stage("sink", 1, 2)
	for _, id := range sides {
		b.Edge(src, id).Edge(id, sink)
	}
	b.Edge(src, green).Edge(green, purple).Edge(purple, sink)
	return b.MustBuild()
}

// fig1Carbon is an 18-hour trace with a pronounced early peak, the shape
// sketched on the left of Fig. 1: the job's execution window overlaps the
// peak, so carbon-aware policies must decide what to run through it.
func fig1Carbon() []float64 {
	return []float64{
		250, 380, 520, 650, 650, 600, 450, 350, 280,
		230, 210, 200, 200, 210, 230, 260, 300, 340,
	}
}

// pcapsToy runs the slotted analogue of Algorithm 1 on the motivating
// instance: at each slot, eligible stages are scored by downstream
// critical path, converted to relative importance, and admitted through
// the Ψγ filter; at least one stage runs whenever the machine pool is
// otherwise idle (the liveness override).
func pcapsToy(inst optimal.Instance, gamma float64) (*optimal.Schedule, error) {
	psi, err := core.NewPsi(gamma, minOf(inst.Carbon), maxOf(inst.Carbon))
	if err != nil {
		return nil, err
	}
	durs := make([]int, len(inst.Job.Stages))
	for i, st := range inst.Job.Stages {
		durs[i] = int(st.TaskDuration)
	}
	cp := inst.Job.CriticalPathDown()
	maxCP := 0.0
	for _, v := range cp {
		if v > maxCP {
			maxCP = v
		}
	}
	rem := append([]int(nil), durs...)
	sched := &optimal.Schedule{}
	for t := 0; t < 10*len(inst.Carbon); t++ {
		var eligible []int
		for _, st := range inst.Job.Stages {
			if rem[st.ID] == 0 {
				continue
			}
			ready := true
			for _, p := range st.Parents {
				if rem[p] != 0 {
					ready = false
					break
				}
			}
			if ready {
				eligible = append(eligible, st.ID)
			}
		}
		if len(eligible) == 0 {
			break
		}
		// Relative importance: downstream critical path against the
		// best eligible stage; consider stages most-important-first so
		// bottlenecks claim machines during expensive hours.
		sortByCPDesc(eligible, cp)
		bestCP := 0.0
		for _, id := range eligible {
			if cp[id] > bestCP {
				bestCP = cp[id]
			}
		}
		price := inst.Carbon[min(t, len(inst.Carbon)-1)]
		var run []int
		for _, id := range eligible {
			if len(run) >= inst.K {
				break
			}
			r := 1.0
			if bestCP > 0 {
				r = cp[id] / bestCP
			}
			if psi.Admits(r, price) || len(run) == 0 && t > 0 && allIdleAfter(sched) {
				run = append(run, id)
			}
		}
		// Liveness: if nothing admitted and nothing running, run the
		// most important stage.
		if len(run) == 0 {
			mostImportant := eligible[0]
			for _, id := range eligible {
				if cp[id] > cp[mostImportant] {
					mostImportant = id
				}
			}
			if allIdleAfter(sched) {
				run = append(run, mostImportant)
			}
		}
		sched.Slots = append(sched.Slots, run)
		for _, id := range run {
			rem[id]--
		}
	}
	return sched, nil
}

// allIdleAfter reports whether the previous slot ran nothing (the toy
// model's "no machines currently busy" condition).
func allIdleAfter(s *optimal.Schedule) bool {
	if len(s.Slots) == 0 {
		return true
	}
	return len(s.Slots[len(s.Slots)-1]) == 0
}

// sortByCPDesc orders stage IDs by downstream critical path, descending
// (stable insertion sort; the slices are tiny).
func sortByCPDesc(ids []int, cp []float64) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && cp[ids[j]] > cp[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// fig1 regenerates the motivating comparison: FIFO, T-OPT, C-OPT (18-hour
// deadline), and PCAPS on the example DAG. Paper: C-OPT −51.2% carbon at
// +28.5% time; PCAPS −23.1% carbon and 7% earlier completion, both vs
// FIFO.
func fig1(opt Options) (*result.Artifact, error) {
	carbonTrace := fig1Carbon()
	// As in the paper, C-OPT may use the whole 18-hour window as its
	// deadline (their FIFO takes 14 hours, ours 13).
	inst := optimal.Instance{Job: motivatingJob(), K: 4, Carbon: carbonTrace, Deadline: 18}

	// The four policies are independent solves; T-OPT and C-OPT are the
	// expensive searches, so fanning them out over the pool roughly
	// halves the artifact's wall-clock. Each solver gets a private clone
	// of the job because optimal's validation normalizes edge lists in
	// place.
	solvers := []func(optimal.Instance) (*optimal.Schedule, error){
		optimal.ListSchedule,
		optimal.TOpt,
		optimal.COpt,
		func(in optimal.Instance) (*optimal.Schedule, error) { return pcapsToy(in, 0.8) },
	}
	scheds := make([]*optimal.Schedule, len(solvers))
	errs := make([]error, len(solvers))
	forEach(opt.pool, len(solvers), func(i int) {
		local := inst
		local.Job = inst.Job.Clone()
		scheds[i], errs[i] = solvers[i](local)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	fifo, topt, copt, pc := scheds[0], scheds[1], scheds[2], scheds[3]
	if err := optimal.Validate(inst, pc); err != nil {
		return nil, fmt.Errorf("fig1: PCAPS toy schedule invalid: %w", err)
	}

	baseC, baseT := fifo.CarbonCost(carbonTrace), fifo.Makespan()
	t := &result.Table{
		Name: "policies",
		Columns: []result.Column{
			{Name: "policy", Kind: result.KindString, Header: "policy", HeaderFormat: "%-7s", Format: "%-7s"},
			{Name: "hours", Kind: result.KindInt, Header: "hours", HeaderFormat: " %9s", Format: " %9d"},
			{Name: "time_delta_pct", Kind: result.KindFloat, Prec: 1, Header: "Δtime", HeaderFormat: " %12s", Format: " %+11.1f%%"},
			{Name: "carbon", Kind: result.KindFloat, Header: "carbon", HeaderFormat: " %10s", Format: " %10.0f"},
			{Name: "carbon_delta_pct", Kind: result.KindFloat, Prec: 1, Header: "Δcarbon", HeaderFormat: " %12s", Format: " %+11.1f%%"},
		},
	}
	row := func(name string, s *optimal.Schedule) {
		c := s.CarbonCost(carbonTrace)
		t.Row(result.Str(name), result.Int(s.Makespan()),
			result.Float(metrics.PercentChange(float64(s.Makespan()), float64(baseT))),
			result.Float(c), result.Float(metrics.PercentChange(c, baseC)))
	}
	row("FIFO", fifo)
	row("T-OPT", topt)
	row("C-OPT", copt)
	row("PCAPS", pc)
	a := result.New().Add(t)
	a.Textf("paper: C-OPT −51.2%% carbon / +28.5%% time; PCAPS −23.1%% carbon / −7%% time (vs FIFO)\n")
	a.Textf("%s", renderTimeline("FIFO ", fifo, inst)+renderTimeline("C-OPT", copt, inst)+renderTimeline("PCAPS", pc, inst))
	return a, nil
}

// renderTimeline draws an ASCII occupancy strip: one row per policy,
// digits = number of stages running that hour.
func renderTimeline(name string, s *optimal.Schedule, inst optimal.Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s |", name)
	for _, ids := range s.Slots {
		if len(ids) == 0 {
			b.WriteString("·")
		} else {
			fmt.Fprintf(&b, "%d", len(ids))
		}
	}
	b.WriteString("|\n")
	return b.String()
}
