package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/carbonapi"
	"pcaps/internal/placement"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// placementParams describes the placement-http workload: open-loop POST
// /v1/placement requests against an in-process carbonapi server, one
// policy per request, all on the same snapshot.
type placementParams struct {
	Snapshot snapshotRecipe `json:"snapshot"`
	// Policies are cycled through, one per request.
	Policies []sched.Spec `json:"policies"`
	Ladder   ladder       `json:"ladder"`
	// Steps names the ladder rates whose latency is reported.
	Steps map[string]float64 `json:"steps"`
	// LatencyStep is the step whose latency is the end-to-end latency.
	LatencyStep string `json:"latency_step"`
	// P99LimitMs is the latency limit a step's p99 must meet.
	P99LimitMs float64 `json:"p99_limit_ms"`
	// BacklogSlack is how far, in requests, the in-flight count may rise
	// over a slot before the backlog counts as growing.
	BacklogSlack float64 `json:"backlog_slack"`
	TimeoutS     float64 `json:"timeout_s"`
	// WarmupRequests are sent, untimed, during set-up.
	WarmupRequests int `json:"warmup_requests"`
	// ProbeCalls is how many times the traced run repeats each
	// single-layer call (decode, restore, Place) it times on its own.
	ProbeCalls int `json:"probe_calls"`
	// Decisions are the expected decisions at the default seed, one per
	// policy.
	Decisions []sim.Placement `json:"decisions"`
}

// snapshotRecipe builds the one snapshot every request carries: a batch
// of TPC-H jobs run on the paper's prototype-sized cluster until enough
// of them are active at once.
type snapshotRecipe struct {
	Executors         int        `json:"executors"`
	Jobs              int        `json:"jobs"`
	MeanInterarrivalS float64    `json:"mean_interarrival_s"`
	Grid              string     `json:"grid"`
	TraceHours        int        `json:"trace_hours"`
	Policy            sched.Spec `json:"policy"`
	// The capture is the first scheduling event with at least
	// MinActiveJobs active jobs and MinBusy busy executors, a contended
	// cluster, whose snapshot encodes to at least MinBytes: decoding
	// dominates a request's cost, so a floor on the size keeps seeds
	// comparable.
	MinActiveJobs int `json:"min_active_jobs"`
	MinBusy       int `json:"min_busy"`
	MinBytes      int `json:"min_bytes"`
}

// ladder is the offered-load schedule: rates from BeginRPS up to
// TargetRPS in StepRPS steps, each held for an equal slot. A run makes
// Passes passes over the ladder, each starting once the one before has
// drained, so that every step is measured in windows spread over the
// run and one slow stretch of a shared machine cannot set a step's
// median.
type ladder struct {
	BeginRPS  float64 `json:"begin_rps"`
	StepRPS   float64 `json:"step_rps"`
	TargetRPS float64 `json:"target_rps"`
	Passes    int     `json:"passes"`
}

// rates lists the ladder's steps.
func (l ladder) rates() []float64 {
	var out []float64
	for r := l.BeginRPS; r <= l.TargetRPS+1e-9; r += l.StepRPS {
		out = append(out, r)
	}
	return out
}

// slot is the length of one step when a run of the given length makes
// every pass.
func (l ladder) slot(run time.Duration) time.Duration {
	return run / time.Duration(l.Passes*len(l.rates()))
}

// schedule returns every request's due time in one pass, offset from
// the pass's start, and the step it belongs to: at rate r, every i/r
// that falls inside the slot.
func (l ladder) schedule(slot time.Duration) (due []time.Duration, step []int) {
	for k, r := range l.rates() {
		n := int(math.Ceil(r*slot.Seconds() - 1e-9))
		for i := 0; i < n; i++ {
			due = append(due, time.Duration(k)*slot+time.Duration(float64(i)/r*float64(time.Second)))
			step = append(step, k)
		}
	}
	return due, step
}

// buildSnapshot runs the recipe and captures the snapshot.
func buildSnapshot(r snapshotRecipe, seed int64) (*sim.Snapshot, error) {
	grid, err := carbon.GridByName(r.Grid)
	if err != nil {
		return nil, err
	}
	jobs, err := workload.Generate(workload.GenConfig{N: r.Jobs, Mix: workload.MixTPCH, Seed: seed,
		Arrivals: arrivals.Poisson{MeanSec: r.MeanInterarrivalS}})
	if err != nil {
		return nil, err
	}
	f, err := sched.Default().New(r.Policy)
	if err != nil {
		return nil, err
	}
	var snap *sim.Snapshot
	var merr error
	cfg := sim.Config{
		NumExecutors: r.Executors,
		Trace:        carbon.Synthesize(grid, r.TraceHours, 60, seed),
		Seed:         seed,
		Observer: func(c *sim.Cluster) {
			if snap != nil || merr != nil || len(c.ActiveJobs()) < r.MinActiveJobs || c.BusyCount() < r.MinBusy {
				return
			}
			s := c.Snapshot()
			b, err := json.Marshal(s)
			if err != nil {
				merr = err
			} else if len(b) >= r.MinBytes {
				snap = s
			}
		},
	}
	if _, err := sim.Run(cfg, jobs, f(seed)); err != nil {
		return nil, err
	}
	if merr != nil {
		return nil, merr
	}
	if snap == nil {
		return nil, fmt.Errorf("no event had %d active jobs, %d busy executors and a %d-byte snapshot",
			r.MinActiveJobs, r.MinBusy, r.MinBytes)
	}
	return snap, nil
}

// placementInputs are the set-up products: encoded request bodies and
// the decisions their responses must decode to.
type placementInputs struct {
	p      placementParams
	seed   int64
	snap   *sim.Snapshot
	bodies [][]byte
	want   []sim.Placement
}

func newPlacementInputs(p placementParams, seed int64) (*placementInputs, error) {
	snap, err := buildSnapshot(p.Snapshot, seed)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	in := &placementInputs{p: p, seed: seed, snap: snap}
	for _, spec := range p.Policies {
		f, err := sched.Default().New(spec)
		if err != nil {
			return nil, err
		}
		c, err := snap.Restore()
		if err != nil {
			return nil, err
		}
		in.want = append(in.want, c.Place(f(seed)))
		body, err := json.Marshal(carbonapi.PlacementRequest{Policy: &spec, Seed: seed, Snapshot: snap})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// server is an in-process carbonapi server with placement enabled.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serving goroutine.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// reqIDHeader carries the generator's request index, so the traced
// server's spans can be matched with the client's.
const reqIDHeader = "X-Perfbench-Request"

type reqIDKey struct{}

// tracedHandler times every request the server handles.
type tracedHandler struct {
	next    http.Handler
	rec     *recorder
	handler []atomic.Int64 // per request index, nanoseconds in ServeHTTP
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
	if err != nil {
		t.next.ServeHTTP(w, r)
		return
	}
	r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
	start := time.Now()
	t.next.ServeHTTP(w, r)
	end := time.Now()
	t.rec.record("carbonapi.Server.ServeHTTP", 0, id+1, start, end)
	if id >= 0 && int(id) < len(t.handler) {
		t.handler[id].Store(int64(end.Sub(start)))
	}
}

// tracedPlacements times every call into placement.Service.
type tracedPlacements struct {
	inner carbonapi.Placements
	rec   *recorder
}

func (t *tracedPlacements) Place(ctx context.Context, req *carbonapi.PlacementRequest) ([]sim.Placement, error) {
	start := time.Now()
	out, err := t.inner.Place(ctx, req)
	id, _ := ctx.Value(reqIDKey{}).(int64)
	t.rec.record("placement.Service.Place", 0, id+1, start, time.Now())
	return out, err
}

// ladderRun is what the passes over the ladder measured. Request g is
// request g%perPass of pass g/perPass.
type ladderRun struct {
	rates   []float64
	passes  int
	perPass int
	due     []time.Duration // per request of a pass, from the pass's start
	step    []int           // per request of a pass
	latency []time.Duration // from due time to response decoded
	rtt     []time.Duration // from send to response decoded
	late    []time.Duration // wake-up overshoot; -1 when the request waited for a connection
	ok      []bool
	done    []time.Duration // completion, from the pass's start
	// inflight samples, per pass and step, the requests due but not yet
	// answered.
	inflight [][][]int
	attempts int
	failed   int
	problems []string
	gcCPU    float64
	cpu      time.Duration // process CPU over the passes
}

// generate drives every pass over the ladder against url, over conns
// connections. With a recorder, each request's round trip is also kept
// as a span.
func (in *placementInputs) generate(url string, conns int, slot time.Duration, rec *recorder) *ladderRun {
	due, step := in.p.Ladder.schedule(slot)
	n := len(due) * in.p.Ladder.Passes
	lr := &ladderRun{rates: in.p.Ladder.rates(), passes: in.p.Ladder.Passes, perPass: len(due), due: due, step: step,
		latency: make([]time.Duration, n), rtt: make([]time.Duration, n), late: make([]time.Duration, n),
		ok: make([]bool, n), done: make([]time.Duration, n),
		inflight: make([][][]int, in.p.Ladder.Passes)}
	clients := make([]*http.Client, conns)
	for w := range clients {
		clients[w] = &http.Client{Timeout: time.Duration(in.p.TimeoutS * float64(time.Second)),
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
		defer clients[w].CloseIdleConnections()
	}
	gc0, c0 := gcCPUSeconds(), cpuTime()
	for p := range lr.passes {
		lr.inflight[p] = make([][]int, len(lr.rates))
		in.pass(lr, p, url, clients, slot, rec)
	}
	lr.gcCPU, lr.cpu = gcCPUSeconds()-gc0, cpuTime()-c0
	lr.attempts = n
	return lr
}

// pass drives pass p and returns once every request of it is answered.
// Due times are fixed in advance; each worker takes the next request,
// sleeps until it is due if it is not yet, and sends it. A request that
// comes due while every connection is busy waits and is still timed
// from its due time, so a stall shows up in latency instead of thinning
// the load.
func (in *placementInputs) pass(lr *ladderRun, p int, url string, clients []*http.Client, slot time.Duration, rec *recorder) {
	var next, completed atomic.Int64
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lr.failed++
		if len(lr.problems) < 5 {
			lr.problems = append(lr.problems, fmt.Sprintf(format, args...))
		}
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case now := <-tick.C:
				at := now.Sub(t0)
				k := int(at / slot)
				if at < 0 || k >= len(lr.rates) {
					continue
				}
				dueNow, _ := slices.BinarySearch(lr.due, at)
				lr.inflight[p][k] = append(lr.inflight[p][k], dueNow-int(completed.Load()))
			}
		}
	}()
	var wg sync.WaitGroup
	for _, client := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= lr.perPass {
					return
				}
				g := p*lr.perPass + i
				at := t0.Add(lr.due[i])
				lr.late[g] = -1
				if time.Until(at) > 0 {
					sleepUntil(at)
					lr.late[g] = time.Since(at)
				}
				sent := time.Now()
				err := in.send(client, url, g)
				end := time.Now()
				completed.Add(1)
				lr.latency[g], lr.rtt[g], lr.done[g] = end.Sub(at), end.Sub(sent), end.Sub(t0)
				if rec != nil {
					rec.record("client.POST", 0, int64(g)+1, sent, end)
				}
				if err != nil {
					fail("request %d: %v", g, err)
					continue
				}
				lr.ok[g] = true
			}
		}()
	}
	wg.Wait()
	close(stopSampler)
	<-samplerDone
}

// send posts request i and checks the decision it gets back.
func (in *placementInputs) send(client *http.Client, url string, i int) error {
	k := i % len(in.bodies)
	req, err := http.NewRequest(http.MethodPost, url+"/v1/placement", bytes.NewReader(in.bodies[k]))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqIDHeader, strconv.Itoa(i))
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var got sim.Placement
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding decision: %w", err)
	}
	if !reflect.DeepEqual(got, in.want[k]) {
		return fmt.Errorf("%s decided %+v, want %+v", in.p.Policies[k].Kind, got, in.want[k])
	}
	return nil
}

// stepStats summarizes one ladder step over every pass.
type stepStats struct {
	rate float64
	n    int
	// p50 is the median of the passes' medians; p99 is over the
	// requests of every pass.
	p50, p99 float64 // ms
	failed   int
	growing  bool    // the backlog grew in some pass
	served   float64 // requests answered per second of the step
}

func (lr *ladderRun) steps(slack float64) []stepStats {
	out := make([]stepStats, len(lr.rates))
	for k := range out {
		s := &out[k]
		s.rate = lr.rates[k]
		var p50s []float64
		var active time.Duration
		for p := range lr.passes {
			lats := lr.latencyIn(p, k)
			if len(lats) == 0 {
				continue
			}
			p50s = append(p50s, quantile(lats, 0.5))
			s.n += len(lats)
			var first, last time.Duration = -1, 0
			for i, sk := range lr.step {
				if sk != k {
					continue
				}
				g := p*lr.perPass + i
				if first < 0 {
					first = lr.due[i]
				}
				last = max(last, lr.done[g])
				if !lr.ok[g] {
					s.failed++
				}
			}
			active += last - first
			s.growing = s.growing || growing(lr.inflight[p][k], slack)
		}
		s.p50 = median(p50s)
		s.p99 = quantile(lr.latencyAt(k), 0.99)
		if active > 0 {
			s.served = float64(s.n) / active.Seconds()
		}
	}
	return out
}

// peakServed is the highest rate at which requests were answered in any
// step: the server's capacity once a step overloads it, else the top
// step's rate.
func peakServed(steps []stepStats) float64 {
	var peak float64
	for _, s := range steps {
		peak = max(peak, s.served)
	}
	return peak
}

// maxRate is the served rate of the highest step that meets the p99
// limit without failures or a growing backlog; 0 when none does.
func maxRate(steps []stepStats, limitMs float64) float64 {
	for k := len(steps) - 1; k >= 0; k-- {
		s := steps[k]
		if s.n > 0 && s.failed == 0 && !s.growing && s.p99 <= limitMs {
			return s.served
		}
	}
	return 0
}

func (lr *ladderRun) stepIndex(rate float64) int {
	for k, r := range lr.rates {
		if math.Abs(r-rate) < 1e-9 {
			return k
		}
	}
	return -1
}

// lateMillis returns the sorted wake-up overshoots of the requests whose
// worker was idle when they came due.
func (lr *ladderRun) lateMillis() []float64 {
	var ds []time.Duration
	for _, d := range lr.late {
		if d >= 0 {
			ds = append(ds, d)
		}
	}
	return sortedMillis(ds)
}

// runPlacement is the placement-http workload.
func runPlacement(o options, p placementParams) (*outcome, error) {
	out := newOutcome()
	c0 := cpuTime()
	in, err := newPlacementInputs(p, o.seed)
	if err != nil {
		return nil, err
	}
	if o.seed == defaultSeed && !reflect.DeepEqual(in.want, p.Decisions) {
		out.fail("local decisions %+v differ from the recorded %+v", in.want, p.Decisions)
	}
	for name, r := range p.Steps {
		if slices.Index(p.Ladder.rates(), r) < 0 {
			return nil, fmt.Errorf("step %s at %v rps is not on the ladder", name, r)
		}
	}
	conns := runtime.NumCPU()
	slot := p.Ladder.slot(o.seconds)
	if o.setupOnly || !o.trace {
		srv, err := startServer(carbonapi.NewServer(nil, carbonapi.WithPlacements(&placement.Service{})))
		if err != nil {
			return nil, err
		}
		warm := in.warmup(srv.url, conns)
		out.setup = cpuTime() - c0
		var lr *ladderRun
		if !o.setupOnly && warm == nil {
			lr = in.generate(srv.url, conns, slot, nil)
		}
		if err := srv.stop(); err != nil {
			return nil, err
		}
		if warm != nil {
			return nil, fmt.Errorf("warm-up: %w", warm)
		}
		if o.setupOnly {
			return out, nil
		}
		held, err := in.heldHeap(out)
		if err != nil {
			return nil, err
		}
		in.endToEnd(out, lr, held)
		return out, nil
	}
	return out, in.traced(o, out, conns, slot, c0)
}

// heapProbe is a carbonapi.Placements decorator that collects garbage
// and reads the live heap each time a request reaches the placement
// service, when the server holds the decoded request.
type heapProbe struct {
	inner carbonapi.Placements
	mu    sync.Mutex
	held  uint64
}

func (h *heapProbe) Place(ctx context.Context, req *carbonapi.PlacementRequest) ([]sim.Placement, error) {
	h.mu.Lock()
	runtime.GC()
	h.held = liveHeap()
	h.mu.Unlock()
	return h.inner.Place(ctx, req)
}

// heldHeap sends two requests per policy, one at a time and checked like
// any other, to a server whose placement service is wrapped in a
// heapProbe, and returns the median of what each request added to the
// live heap: the probe's reading less the live heap once the response
// is in and the connection idle. Sampling the live heap during the
// ladder instead would read it only where the runtime happened to
// finish a collection, which moved the figure by ±20% between runs.
func (in *placementInputs) heldHeap(out *outcome) (float64, error) {
	hp := &heapProbe{inner: &placement.Service{}}
	srv, err := startServer(carbonapi.NewServer(nil, carbonapi.WithPlacements(hp)))
	if err != nil {
		return 0, err
	}
	client := &http.Client{Timeout: time.Duration(in.p.TimeoutS * float64(time.Second))}
	var held []float64
	for i := range 2 * len(in.bodies) {
		out.attempted++
		if err := in.send(client, srv.url, i); err != nil {
			out.fail("heap probe request %d: %v", i, err)
			continue
		}
		runtime.GC()
		idle := liveHeap()
		hp.mu.Lock()
		held = append(held, float64(hp.held)-float64(idle))
		hp.mu.Unlock()
	}
	client.CloseIdleConnections()
	return median(held) / (1 << 20), srv.stop()
}

// warmup sends WarmupRequests requests back to back over conns
// connections.
func (in *placementInputs) warmup(url string, conns int) error {
	var next atomic.Int64
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: time.Duration(in.p.TimeoutS * float64(time.Second))}
			defer client.CloseIdleConnections()
			for i := int(next.Add(1) - 1); i < in.p.WarmupRequests; i = int(next.Add(1) - 1) {
				if err := in.send(client, url, i); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// account adds a ladder pass's requests to the outcome.
func (out *outcome) account(lr *ladderRun) {
	out.attempted += lr.attempts
	out.failed += lr.failed
	for _, p := range lr.problems {
		if len(out.problems) < 5 {
			out.problems = append(out.problems, p)
		}
	}
}

// latencyIn returns the sorted latencies of the requests of pass p due
// in step k.
func (lr *ladderRun) latencyIn(p, k int) []float64 {
	var lats []time.Duration
	for i, s := range lr.step {
		if s == k {
			lats = append(lats, lr.latency[p*lr.perPass+i])
		}
	}
	return sortedMillis(lats)
}

// latencyAt returns the sorted latencies of the requests due in step k
// in every pass.
func (lr *ladderRun) latencyAt(k int) []float64 {
	var all []float64
	for p := range lr.passes {
		all = append(all, lr.latencyIn(p, k)...)
	}
	slices.Sort(all)
	return all
}

func (in *placementInputs) endToEnd(out *outcome, lr *ladderRun, heapMiB float64) {
	out.account(lr)
	steps := lr.steps(in.p.BacklogSlack)
	k := lr.stepIndex(in.p.Steps[in.p.LatencyStep])
	out.endToEnd(float64(lr.attempts)/lr.cpu.Seconds(), steps[k].p50, lr.latencyAt(k),
		fmt.Sprintf("POST /v1/placement from due time at the %s step (%v rps)", in.p.LatencyStep, steps[k].rate), heapMiB)
	for _, name := range []string{"low", "mid", "high"} {
		out.figure("place_p50_ms."+name, steps[lr.stepIndex(in.p.Steps[name])].p50, "ms")
	}
	for _, name := range []string{"low", "mid", "high"} {
		// A p99 set by fewer than minBeyond samples is not printed.
		if s := steps[lr.stepIndex(in.p.Steps[name])]; beyond(s.n, 0.99) >= minBeyond {
			out.figure("place_p99_ms."+name, s.p99, "ms")
		}
	}
	out.figure("place_max_rps", maxRate(steps, in.p.P99LimitMs), "req/s")
	out.reps = 1
	out.notes = append(out.notes, in.stepNotes(steps)...)
}

func (in *placementInputs) stepNotes(steps []stepStats) []string {
	notes := []string{fmt.Sprintf("%8s %6s %9s %9s %9s %7s %6s", "rps", "n", "p50 ms", "p99 ms", "served/s", "growing", "failed")}
	for _, s := range steps {
		notes = append(notes, fmt.Sprintf("%8.0f %6d %9.3f %9.3f %9.1f %7v %6d", s.rate, s.n, s.p50, s.p99, s.served, s.growing, s.failed))
	}
	busy := 0
	for _, e := range in.snap.Executors {
		if e.State != sim.ExecIdle {
			busy++
		}
	}
	return append(notes, fmt.Sprintf("limit: p99 <= %v ms; snapshot at t=%.0fs: %d active jobs, %d of %d executors busy, request body %d bytes",
		in.p.P99LimitMs, in.snap.TimeSec, len(in.snap.Jobs), busy, in.snap.NumExecutors, len(in.bodies[0])))
}

// traced runs the ladder once untraced, for the overhead baseline and
// the generator's figures, and once with every request timed at the
// handler and at the placement service; then it times decode, restore
// and each policy's Place on their own.
func (in *placementInputs) traced(o options, out *outcome, conns int, slot, c0 time.Duration) error {
	srv, err := startServer(carbonapi.NewServer(nil, carbonapi.WithPlacements(&placement.Service{})))
	if err != nil {
		return err
	}
	werr := in.warmup(srv.url, conns)
	out.setup = cpuTime() - c0
	var plain *ladderRun
	if werr == nil {
		plain = in.generate(srv.url, conns, slot, nil)
	}
	if err := errors.Join(werr, srv.stop()); err != nil {
		return err
	}
	out.account(plain)

	rec := newRecorder()
	due, _ := in.p.Ladder.schedule(slot)
	th := &tracedHandler{rec: rec, handler: make([]atomic.Int64, len(due)*in.p.Ladder.Passes)}
	th.next = carbonapi.NewServer(nil, carbonapi.WithPlacements(&tracedPlacements{inner: &placement.Service{}, rec: rec}))
	srv, err = startServer(th)
	if err != nil {
		return err
	}
	tr := in.generate(srv.url, conns, slot, rec)
	if err := srv.stop(); err != nil {
		return err
	}
	out.account(tr)
	return in.perLayer(o, out, plain, tr, th, rec)
}

// perLayer fills the traced run's metrics and cost table.
func (in *placementInputs) perLayer(o options, out *outcome, plain, tr *ladderRun, th *tracedHandler, rec *recorder) error {
	m := out.metrics
	steps := plain.steps(in.p.BacklogSlack)
	m["place.max_rps"] = maxRate(steps, in.p.P99LimitMs)
	for name, rate := range in.p.Steps {
		if name == in.p.LatencyStep {
			continue // reported as latency_p50_ms and latency_p99_ms
		}
		s := steps[plain.stepIndex(rate)]
		m["place.p50_ms."+name] = s.p50
		m["place.p99_ms."+name] = s.p99
	}
	k := plain.stepIndex(in.p.Steps[in.p.LatencyStep])
	out.wallFigures(peakServed(steps), steps[k].p50, plain.latencyAt(k))
	late := plain.lateMillis()
	m["gen.late_p50_ms"] = quantile(late, 0.5)
	m["gen.late_p99_ms"] = quantile(late, 0.99)
	var size int
	for _, b := range in.bodies {
		size += len(b)
	}
	m["carbonapi.request_bytes"] = float64(size) / float64(len(in.bodies))

	// Per request: the handler's time, the placement service's share of
	// it, and the rest of the client's round trip (transport).
	var handler, transport []time.Duration
	for i, ok := range tr.ok {
		h := time.Duration(th.handler[i].Load())
		if !ok || h == 0 {
			continue
		}
		handler = append(handler, h)
		transport = append(transport, tr.rtt[i]-h)
	}
	place := rec.byName("placement.Service.Place")
	m["placement.place_us"] = meanMicros(place)
	m["carbonapi.handler_self_us"] = meanMicros(handler) - meanMicros(place)
	m["transport_us"] = meanMicros(transport)
	m["runtime.gc_cpu_s"] = tr.gcCPU
	m["trace.overhead_s"] = (tr.steps(in.p.BacklogSlack)[k].p50 - steps[k].p50) / 1e3

	// Single-layer calls timed on their own, ProbeCalls times each.
	probe := func(name string, fn func() error) (float64, error) {
		var ds []time.Duration
		for i := 0; i < in.p.ProbeCalls; i++ {
			t := time.Now()
			if err := fn(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			end := time.Now()
			rec.record(name, 0, 0, t, end)
			ds = append(ds, end.Sub(t))
		}
		return meanMicros(ds), nil
	}
	var err error
	if m["carbonapi.decode_us"], err = probe("carbonapi.decode", func() error {
		var errs []error
		for _, b := range in.bodies {
			// As the handler decodes: unknown fields rejected.
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			var req carbonapi.PlacementRequest
			errs = append(errs, dec.Decode(&req))
		}
		return errors.Join(errs...)
	}); err != nil {
		return err
	}
	m["carbonapi.decode_us"] /= float64(len(in.bodies))
	if m["sim.restore_us"], err = probe("sim.Snapshot.Restore", func() error {
		_, err := in.snap.Restore()
		return err
	}); err != nil {
		return err
	}
	cluster, err := in.snap.Restore()
	if err != nil {
		return err
	}
	var pick float64
	for _, spec := range in.p.Policies {
		f, err := sched.Default().New(spec)
		if err != nil {
			return err
		}
		us, err := probe("sim.Cluster.Place/"+spec.Kind, func() error {
			cluster.Place(f(in.seed))
			return nil
		})
		if err != nil {
			return err
		}
		m["sched.place_us."+spec.Kind] = us
		pick += us / float64(len(in.p.Policies))
	}

	n := float64(len(handler))
	rtt := meanMicros(handler) + meanMicros(transport)
	us := func(v float64) float64 { return v * n / 1e6 }
	wall := us(rtt)
	out.shareOf = "the client's round trip; probes are single-layer calls timed on their own"
	out.layers = []layerRow{
		{"carbonapi", "ServeHTTP self (decode, encode, mux)", n, us(m["carbonapi.handler_self_us"]), wall},
		{"carbonapi", "  of which JSON decode (probe)", n, us(m["carbonapi.decode_us"]), wall},
		{"placement", "Service.Place self", n, us(m["placement.place_us"] - m["sim.restore_us"] - pick), wall},
		{"sim", "Snapshot.Restore (probe)", n, us(m["sim.restore_us"]), wall},
		{"sched", "Cluster.Place, policy mean (probe)", n, us(pick), wall},
		{"transport", "client round trip - ServeHTTP", n, us(m["transport_us"]), wall},
	}
	out.notes = append(out.notes, in.stepNotes(steps)...)
	out.reps = 2
	return rec.write(o.spansDir, fmt.Sprintf("placement-http-seed%d", o.seed))
}
