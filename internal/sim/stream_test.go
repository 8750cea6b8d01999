package sim

import (
	"encoding/json"
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

func TestIntHeapShrinksAfterBurst(t *testing.T) {
	var h intHeap
	const n = 8 * heapShrinkMin
	for i := 0; i < n; i++ {
		h.push(i)
	}
	grown := cap(h)
	for len(h) > 16 {
		h.pop()
	}
	if got := cap(h); got > heapShrinkMin {
		t.Fatalf("int heap capacity %d after draining to 16 entries; want <= %d (grown to %d during the burst)", got, heapShrinkMin, grown)
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
	if len(first.JCTs) != 30 || len(first.JobCarbon) != 30 {
		t.Fatalf("PerJobResults kept %d JCTs / %d JobCarbon, want 30", len(first.JCTs), len(first.JobCarbon))
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
// reserved-idle heap, expiry events) against the classic engine, since
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
