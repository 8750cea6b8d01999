package sim

import (
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pcaps/internal/dag"
)

// burstJobs builds n single-stage jobs all arriving at t=0 (the burst
// that bloats the event heap) with short tasks.
func burstJobs(t testing.TB, n int) []*dag.Job {
	t.Helper()
	jobs := make([]*dag.Job, n)
	for i := range jobs {
		jobs[i] = chainJob(t, i, 5)
	}
	return jobs
}

func TestEventHeapShrinksAfterBurst(t *testing.T) {
	var c Cluster
	const n = 8 * heapShrinkMin
	for i := 0; i < n; i++ {
		c.push(event{at: float64(i)})
	}
	grown := cap(c.events.items)
	if grown < n {
		t.Fatalf("heap capacity %d after %d pushes", grown, n)
	}
	for c.events.Len() > 16 {
		c.pop()
	}
	if got := cap(c.events.items); got > heapShrinkMin {
		t.Fatalf("event heap capacity %d after draining to 16 entries; want <= %d (grown to %d during the burst)", got, heapShrinkMin, grown)
	}
}

// queueProbe schedules greedily and records the expiry queue's capacity
// at every Pick: the largest seen and the last.
type queueProbe struct {
	greedy
	peak, last int
}

func (p *queueProbe) Pick(c *Cluster) Decision {
	p.last = cap(c.expiries)
	p.peak = max(p.peak, p.last)
	return p.greedy.Pick(c)
}

// TestExpiryQueueShrinksAfterBurst is the expiry queue's analog of
// TestEventHeapShrinksAfterBurst, through the engine: a hold-mode
// RunStream whose burst keeps thousands of expiries pending must give
// the queue's capacity back once the burst drains. The burst is 400
// chains of 1 s single-task stages at t = 0; each stage after the first
// runs on the executor its job holds, and every task ends in a fresh
// 60 s expiry. A trickle of short chains on the 20 spare executors
// samples the queue through the burst and well after it.
func TestExpiryQueueShrinksAfterBurst(t *testing.T) {
	stages := make([]float64, 100)
	for i := range stages {
		stages[i] = 1
	}
	var jobs []*dag.Job
	for i := 0; i < 400; i++ {
		jobs = append(jobs, chainJob(t, i, stages...))
	}
	for i := 0; i < 60; i++ {
		j := chainJob(t, len(jobs), 1, 1, 1)
		j.Arrival = float64(5 + 10*i)
		jobs = append(jobs, j)
	}
	cf := cfg(t, 420)
	cf.HoldExecutors = true
	cf.IdleTimeout = 60
	probe := &queueProbe{}
	if _, err := RunStream(cf, &SliceSource{Jobs: jobs}, probe); err != nil {
		t.Fatal(err)
	}
	if probe.peak < 4*queueShrinkMin {
		t.Fatalf("expiry queue capacity peaked at %d; fixture too small", probe.peak)
	}
	if probe.last > queueShrinkMin {
		t.Fatalf("expiry queue capacity %d after the burst drained; want <= %d (grown to %d during the burst)", probe.last, queueShrinkMin, probe.peak)
	}
}

// has reports whether the set holds id.
func (s *idSet) has(id int) bool { return s.words[id>>6]&(1<<(id&63)) != 0 }

// TestIDSetMatchesSortedModel drives the executor bitmap through seeded
// random adds, removes, pop-mins, peeks and clones, checking it against
// a sorted slice after every step, at sizes on and around the 64-bit
// word boundaries.
func TestIDSetMatchesSortedModel(t *testing.T) {
	for _, k := range []int{1, 63, 64, 65, 1000} {
		rng := rand.New(rand.NewSource(int64(k)))
		s := newIDSet(k)
		var model []int // sorted IDs in the set
		check := func(op string) {
			t.Helper()
			if got := s.peekN(s.len()); s.len() != len(model) || !slices.Equal(got, model) {
				t.Fatalf("K=%d after %s: set holds %v (len %d), model %v", k, op, got, s.len(), model)
			}
		}
		for step := 0; step < 20*k+200; step++ {
			switch op := rng.Intn(5); {
			case op == 0 && len(model) < k: // add an absent ID
				id := rng.Intn(k)
				for slices.Contains(model, id) {
					id = (id + 1) % k
				}
				s.add(id)
				i, _ := slices.BinarySearch(model, id)
				model = slices.Insert(model, i, id)
				check("add")
			case op == 1 && len(model) > 0: // remove a present ID
				i := rng.Intn(len(model))
				s.remove(model[i])
				model = slices.Delete(model, i, i+1)
				check("remove")
			case op == 2 && len(model) > 0:
				if got := s.popMin(); got != model[0] {
					t.Fatalf("K=%d: popMin = %d, want %d", k, got, model[0])
				}
				model = model[1:]
				check("popMin")
			case op == 3:
				n := rng.Intn(len(model) + 1)
				if got := s.peekN(n); !slices.Equal(got, model[:n]) {
					t.Fatalf("K=%d: peekN(%d) = %v, want %v", k, n, got, model[:n])
				}
				check("peekN")
			case op == 4:
				// A clone is independent: draining it leaves the set as it was.
				cl := s.clone()
				for i, want := range model {
					if !cl.has(want) || cl.popMin() != want {
						t.Fatalf("K=%d: clone lost ID %d (index %d)", k, want, i)
					}
				}
				if cl.len() != 0 {
					t.Fatalf("K=%d: drained clone has %d IDs left", k, cl.len())
				}
				check("clone")
			}
		}
		for id := range k {
			if s.has(id) != slices.Contains(model, id) {
				t.Fatalf("K=%d: has(%d) = %v", k, id, s.has(id))
			}
		}
	}
}

// TestRunStreamRecyclesRuns drives a sequential stream (each job done
// before the next arrives) and checks the pool actually serves recycled
// records, the summary matches the classic engine's, and a recycled
// JobRun carries no state from its previous occupant — any leak
// (stage counters, held lists, runnable index) would desynchronize the
// trajectories and show up in the compared Results.
func TestRunStreamRecyclesRuns(t *testing.T) {
	const n = 40
	jobs := make([]*dag.Job, n)
	for i := range jobs {
		j := chainJob(t, i, 10, 10)
		j.Arrival = float64(i) * 100 // previous job long done: pool must recycle
		jobs[i] = j
	}
	cf := cfg(t, 4)
	classic, err := Run(cf, jobs, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := RunStream(cf, &SliceSource{Jobs: jobs}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Stream == nil {
		t.Fatal("RunStream result carries no StreamStats")
	}
	if streamed.Stream.RecycledRuns == 0 {
		t.Fatal("sequential stream recycled no JobRun records")
	}
	if streamed.Stream.Admitted != n {
		t.Fatalf("admitted %d jobs, want %d", streamed.Stream.Admitted, n)
	}
	if streamed.Stream.PeakInFlight != 1 {
		t.Fatalf("peak in-flight %d for a strictly sequential stream, want 1", streamed.Stream.PeakInFlight)
	}
	if streamed.AvgJCT != classic.AvgJCT || streamed.ECT != classic.ECT ||
		streamed.CarbonGrams != classic.CarbonGrams || streamed.Events != classic.Events {
		t.Fatalf("streamed summary diverged from classic: stream %+v classic %+v", streamed, classic)
	}
	if streamed.JCTs != nil {
		t.Fatal("RunStream kept per-job slices without PerJobResults")
	}
}

// TestRunStreamRepeatable runs the same stream twice and demands byte-
// identical results: the pool is per-run state, so nothing may persist
// from one run into the next.
func TestRunStreamRepeatable(t *testing.T) {
	jobs := burstJobs(t, 30)
	cf := cfg(t, 3)
	cf.PerJobResults = true
	first, err := RunStream(cf, &SliceSource{Jobs: jobs}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunStream(cf, &SliceSource{Jobs: jobs}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Fatalf("repeated streams diverged:\n%s\n%s", a, b)
	}
	if len(first.JCTs) != 30 {
		t.Fatalf("PerJobResults kept %d JCTs, want 30", len(first.JCTs))
	}
}

func TestRunStreamValidation(t *testing.T) {
	cf := cfg(t, 2)
	src := func() *SliceSource { return &SliceSource{Jobs: burstJobs(t, 2)} }

	bad := cf
	bad.TrackJobUsage = true
	if _, err := RunStream(bad, src(), greedy{}); err == nil || !strings.Contains(err.Error(), "TrackJobUsage") {
		t.Fatalf("TrackJobUsage not rejected: %v", err)
	}
	bad = cf
	bad.Observer = func(*Cluster) {}
	if _, err := RunStream(bad, src(), greedy{}); err == nil || !strings.Contains(err.Error(), "Observer") {
		t.Fatalf("Observer not rejected: %v", err)
	}
	if _, err := RunStream(cf, nil, greedy{}); err == nil {
		t.Fatal("nil source not rejected")
	}
	if _, err := RunStream(cf, &SliceSource{}, greedy{}); err == nil || !strings.Contains(err.Error(), "no jobs") {
		t.Fatalf("empty source not rejected: %v", err)
	}

	// Arrivals must be non-decreasing: the admission rule depends on it.
	j0, j1 := chainJob(t, 0, 5), chainJob(t, 1, 5)
	j0.Arrival, j1.Arrival = 100, 0
	if _, err := RunStream(cf, &SliceSource{Jobs: []*dag.Job{j0, j1}}, greedy{}); err == nil || !strings.Contains(err.Error(), "non-decreasing") {
		t.Fatalf("out-of-order arrivals not rejected: %v", err)
	}
}

// TestRunStreamHoldMode covers the executor-retention path (held lists,
// reserved-idle set, expiry events) against the classic engine, since
// recycled runs reuse their held-list backing arrays.
func TestRunStreamHoldMode(t *testing.T) {
	jobs := make([]*dag.Job, 25)
	for i := range jobs {
		j := chainJob(t, i, 15, 15, 15)
		j.Arrival = float64(i) * 40
		jobs[i] = j
	}
	cf := cfg(t, 6)
	cf.HoldExecutors = true
	cf.IdleTimeout = 30
	cf.MoveDelay = 2
	cf.PerJobResults = true
	classic, err := Run(cf, jobs, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := RunStream(cf, &SliceSource{Jobs: jobs}, greedy{})
	if err != nil {
		t.Fatal(err)
	}
	streamed.Stream = nil
	a, _ := json.Marshal(classic)
	b, _ := json.Marshal(streamed)
	if string(a) != string(b) {
		t.Fatalf("hold-mode stream diverged from classic:\n%s\n%s", a, b)
	}
}
