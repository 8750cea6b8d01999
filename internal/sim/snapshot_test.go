package sim

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pcaps/internal/carbon"
	"pcaps/internal/workload"
)

// midRunSnapshot runs a short simulation and captures a snapshot at the
// n-th scheduling event with work in flight, so the snapshot exercises
// busy executors, partial stages, and multiple active jobs.
func midRunSnapshot(t *testing.T, seed int64, n int) *Snapshot {
	t.Helper()
	jobs := workload.Batch(workload.BatchConfig{N: 8, MeanInterarrival: 20, Mix: workload.MixBoth, Seed: seed})
	tr := carbon.SynthesizeAll(48, 60, seed)["PJM"]
	var snap *Snapshot
	events := 0
	cfg := Config{
		NumExecutors: 16,
		Trace:        tr,
		Seed:         seed,
		Observer: func(c *Cluster) {
			events++
			if snap == nil && events >= n && c.BusyCount() > 0 && len(c.ActiveJobs()) > 1 {
				snap = c.Snapshot()
			}
		},
	}
	if _, err := Run(cfg, jobs, &fifoForTest{}); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no mid-run snapshot captured; fixture too small")
	}
	return snap
}

// fifoForTest is a minimal in-package FIFO so the sim tests do not
// import internal/sched (which imports sim).
type fifoForTest struct{}

func (fifoForTest) Name() string { return "fifo-test" }
func (fifoForTest) Pick(c *Cluster) Decision {
	for _, ref := range c.Runnable() {
		return Decision{Ref: ref, Limit: ref.Stage.Stage.NumTasks}
	}
	return Decision{Defer: true}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	snap := midRunSnapshot(t, 42, 25)
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("decode with DisallowUnknownFields: %v", err)
	}
	if !reflect.DeepEqual(snap, &back) {
		t.Fatalf("snapshot did not survive the JSON round-trip:\n%s", raw)
	}
	// A second marshal must be byte-identical — the JSON form is the
	// wire contract of /v1/placement.
	raw2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatal("re-marshal not byte-identical")
	}
}

func TestSnapshotRestoreViews(t *testing.T) {
	snap := midRunSnapshot(t, 7, 40)
	c, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Now(); got != snap.TimeSec {
		t.Errorf("Now() = %v, want %v", got, snap.TimeSec)
	}
	if got := len(c.ActiveJobs()); got != len(snap.Jobs) {
		t.Errorf("ActiveJobs() = %d jobs, want %d", got, len(snap.Jobs))
	}
	var wantBusy, wantIdle int
	for _, e := range snap.Executors {
		switch e.State {
		case ExecBusy, ExecHeld:
			wantBusy++
		case ExecIdle:
			wantIdle++
		}
	}
	if got := c.BusyCount(); got != wantBusy {
		t.Errorf("BusyCount() = %d, want %d", got, wantBusy)
	}
	if got := c.IdleCount(); got != wantIdle {
		t.Errorf("IdleCount() = %d, want %d", got, wantIdle)
	}
	lo, hi := c.CarbonBounds()
	if lo != snap.Carbon.ForecastLow || hi != snap.Carbon.ForecastHigh {
		t.Errorf("CarbonBounds() = (%v, %v), want frozen (%v, %v)",
			lo, hi, snap.Carbon.ForecastLow, snap.Carbon.ForecastHigh)
	}
	if got, want := c.Carbon(), c.cfg.Trace.At(snap.TimeSec); got != want {
		t.Errorf("Carbon() = %v, want trace value %v", got, want)
	}
}

// TestSnapshotRestoreRejects pins that every malformed field is named by
// its JSON path — the placement API surfaces these verbatim as 400s.
func TestSnapshotRestoreRejects(t *testing.T) {
	base := func(t *testing.T) *Snapshot { return midRunSnapshot(t, 11, 20) }
	cases := []struct {
		name   string
		mutate func(*Snapshot)
		field  string
	}{
		{"no executors", func(s *Snapshot) { s.NumExecutors = 0 }, "snapshot.num_executors"},
		{"negative cap", func(s *Snapshot) { s.PerJobCap = -1 }, "snapshot.per_job_cap"},
		{"negative time", func(s *Snapshot) { s.TimeSec = -4 }, "snapshot.time_sec"},
		{"empty trace", func(s *Snapshot) { s.Carbon.Values = nil }, "snapshot.carbon"},
		{"inverted bounds", func(s *Snapshot) { s.Carbon.ForecastLow = 9; s.Carbon.ForecastHigh = 1 }, "snapshot.carbon.forecast_low"},
		{"executor count mismatch", func(s *Snapshot) { s.Executors = s.Executors[:len(s.Executors)-1] }, "snapshot.executors"},
		{"missing dag", func(s *Snapshot) { s.Jobs[0].DAG = nil }, "snapshot.jobs[0].dag"},
		{"stage count mismatch", func(s *Snapshot) { s.Jobs[0].Stages = s.Jobs[0].Stages[:1] }, "snapshot.jobs[0].stages"},
		{"overdispatched", func(s *Snapshot) { s.Jobs[0].Stages[0].Dispatched = 1 << 20 }, ".dispatched"},
		{"broken invariant", func(s *Snapshot) {
			st := &s.Jobs[0].Stages[0]
			st.Dispatched = st.Completed + st.Running + 1
		}, ""}, // lands on .dispatched or .running depending on headroom
		{"bad executor state", func(s *Snapshot) { s.Executors[0] = ExecutorSnapshot{State: "sleeping"} }, "snapshot.executors[0].state"},
		{"executor job out of range", func(s *Snapshot) {
			s.Executors[0] = ExecutorSnapshot{State: ExecBusy, Job: 99, Stage: 0}
		}, "snapshot.executors[0].job"},
		{"binding mismatch", func(s *Snapshot) {
			// Flip one busy executor to idle without fixing Running.
			for i, e := range s.Executors {
				if e.State == ExecBusy {
					s.Executors[i] = ExecutorSnapshot{State: ExecIdle, Job: -1, Stage: -1}
					return
				}
			}
		}, ".running"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base(t)
			tc.mutate(s)
			_, err := s.Restore()
			if err == nil {
				t.Fatal("Restore accepted a malformed snapshot")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not name field %q", err, tc.field)
			}
		})
	}
}

func TestPlaceBindsFreeExecutors(t *testing.T) {
	snap := midRunSnapshot(t, 3, 30)
	c, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	p := c.Place(fifoForTest{})
	if p.Defer {
		t.Fatal("FIFO deferred on a cluster with runnable work")
	}
	if p.Scheduler != "fifo-test" {
		t.Errorf("Scheduler = %q, want fifo-test", p.Scheduler)
	}
	free := c.IdleCount()
	if len(p.ExecutorIDs) > free {
		t.Errorf("placement binds %d executors with only %d free", len(p.ExecutorIDs), free)
	}
	seen := map[int]bool{}
	for i, id := range p.ExecutorIDs {
		if id < 0 || id >= snap.NumExecutors {
			t.Errorf("executor ID %d out of range", id)
		}
		if snap.Executors[id].State != ExecIdle {
			t.Errorf("executor %d bound but not idle in the snapshot", id)
		}
		if seen[id] {
			t.Errorf("executor %d bound twice", id)
		}
		seen[id] = true
		if i > 0 && p.ExecutorIDs[i-1] >= id {
			t.Errorf("executor IDs not ascending: %v", p.ExecutorIDs)
		}
	}
	// Place must not mutate: a second identical Pick sees identical state.
	p2 := c.Place(fifoForTest{})
	if !reflect.DeepEqual(p, p2) {
		t.Errorf("Place mutated cluster state:\nfirst  %+v\nsecond %+v", p, p2)
	}
}

// boundedPolicy is stateless: its decision is a function of the cluster
// state alone, so a Place call and the live Pick after it agree. Its
// limits and MaxNew vary by stage, so binds stop at every headroom.
type boundedPolicy struct{}

func (boundedPolicy) Name() string { return "bounded-test" }
func (boundedPolicy) Pick(c *Cluster) Decision {
	r := c.Runnable()
	if len(r) == 0 {
		return DeferDecision
	}
	ref := r[len(r)-1]
	return Decision{Ref: ref, Limit: 1 + ref.Stage.Stage.ID%4, MaxNew: ref.Stage.Dispatched % 3}
}

// placeChecker runs boundedPolicy live. At each Pick it first records
// what Place predicts, then checks at the next Pick or at the end of the
// pass that exactly the predicted executors left the free pool, bound to
// the predicted stage.
type placeChecker struct {
	t          *testing.T
	want       *Placement
	freeBefore []int
	checked    int
	bound      int
}

func (p *placeChecker) Name() string { return "place-checker" }
func (p *placeChecker) Pick(c *Cluster) Decision {
	p.verify(c)
	pl := c.Place(boundedPolicy{})
	p.want = &pl
	p.freeBefore = slices.Sorted(slices.Values(c.free))
	return boundedPolicy{}.Pick(c)
}

func (p *placeChecker) verify(c *Cluster) {
	if p.want == nil {
		return
	}
	var got []int
	for _, id := range p.freeBefore {
		if !slices.Contains(c.free, id) {
			got = append(got, id)
			if e := c.execs[id]; e.job.Job.ID != p.want.JobID || e.stage.Stage.ID != p.want.StageID {
				p.t.Errorf("t=%v: executor %d bound to job %d stage %d, Place said job %d stage %d",
					c.Now(), id, e.job.Job.ID, e.stage.Stage.ID, p.want.JobID, p.want.StageID)
			}
		}
	}
	if !slices.Equal(got, p.want.ExecutorIDs) {
		p.t.Errorf("t=%v: pass bound %v, Place predicted %v (%+v)", c.Now(), got, p.want.ExecutorIDs, *p.want)
	}
	p.checked++
	p.bound += len(got)
	p.want = nil
}

func TestPlacePredictsLiveBind(t *testing.T) {
	for _, hold := range []bool{false, true} {
		jobs := workload.Batch(workload.BatchConfig{N: 10, MeanInterarrival: 15, Mix: workload.MixBoth, Seed: 5})
		p := &placeChecker{t: t}
		cfg := Config{
			NumExecutors:  16,
			Trace:         carbon.SynthesizeAll(48, 60, 5)["PJM"],
			PerJobCap:     3,
			MoveDelay:     1,
			HoldExecutors: hold,
			IdleTimeout:   5,
			Observer:      p.verify,
		}
		if _, err := Run(cfg, jobs, p); err != nil {
			t.Fatal(err)
		}
		if p.checked < 50 || p.bound == 0 {
			t.Errorf("hold=%v: %d placements checked, %d executors bound; fixture too small", hold, p.checked, p.bound)
		}
	}
}
