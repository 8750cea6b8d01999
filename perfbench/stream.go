package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// streamParams sizes a stream workload: a capacity-matched constant
// arrival stream of TPC-H jobs driven through sim.RunStream, the shape
// of the hyperscale artifact and of BenchmarkHyperscaleStream.
type streamParams struct {
	Policy      sched.Spec `json:"policy"`
	Executors   int        `json:"executors"`
	Utilization float64    `json:"utilization"`
	// MeanJobWorkS is the mean TPC-H job work in executor-seconds, used
	// to turn Utilization into an arrival rate.
	MeanJobWorkS float64 `json:"mean_job_work_s"`
	Grid         string  `json:"grid"`
	// TraceSeed seeds the carbon trace. It is fixed, so the workload seed
	// varies the jobs and the engine's and policy's draws but not the
	// grid's signal: a trace drawn per seed moved a carbon-aware policy's
	// deferrals, and with them its cost, by ±10% between seeds.
	TraceSeed  int64   `json:"trace_seed"`
	MoveDelayS float64 `json:"move_delay_s"`
	// JobsPerRep is the size of one timed RunStream call.
	JobsPerRep int `json:"jobs_per_rep"`
	// WarmupJobs is the size of the untimed stream run during set-up.
	WarmupJobs int `json:"warmup_jobs"`
	// BlockJobs is the admission block whose wall time is one latency
	// sample.
	BlockJobs int `json:"block_jobs"`
	// HeapEvery is the admission interval between live-heap samples in
	// the memory rep.
	HeapEvery int `json:"heap_every"`
	// Digest is the summary every rep must reproduce at the default seed.
	Digest *streamDigest `json:"digest"`
}

// streamDigest is the part of a stream run's result the output check
// compares exactly.
type streamDigest struct {
	Events       int     `json:"events"`
	Admitted     int     `json:"admitted"`
	PeakInFlight int     `json:"peak_in_flight"`
	Deferrals    int     `json:"deferrals"`
	CarbonGrams  float64 `json:"carbon_grams"`
	AvgJCT       float64 `json:"avg_jct"`
	P50JCT       float64 `json:"p50_jct"`
	P95JCT       float64 `json:"p95_jct"`
	P99JCT       float64 `json:"p99_jct"`
}

func digestOf(res *sim.Result) streamDigest {
	return streamDigest{
		Events: res.Events, Admitted: res.Stream.Admitted, PeakInFlight: res.Stream.PeakInFlight,
		Deferrals: res.Deferrals, CarbonGrams: res.CarbonGrams, AvgJCT: res.AvgJCT,
		P50JCT: res.Stream.P50JCT, P95JCT: res.Stream.P95JCT, P99JCT: res.Stream.P99JCT,
	}
}

// digestCheck compares every rep's summary with a reference: the
// recorded digest at the default seed, else the first rep's summary.
type digestCheck struct{ want *streamDigest }

func (c *digestCheck) check(out *outcome, d streamDigest) {
	out.attempted++
	if c.want == nil {
		c.want = &d
		return
	}
	if d != *c.want {
		out.fail("stream digest %+v, want %+v", d, *c.want)
	}
}

// meteredSource wraps the job source of one RunStream call. In a timed
// rep it stamps the wall clock at every BlockJobs-th admission, and when
// traced it also times each Next. In the memory rep it instead collects
// garbage and reads the live heap at every HeapEvery-th admission: the
// runtime updates /gc/heap/live:bytes only when a collection ends, so
// without one the reading would depend on when the last one happened.
type meteredSource struct {
	src       sim.JobSource
	n         int
	blockJobs int
	stamps    []time.Time
	heapEvery int
	heap      []metrics.Sample
	peakHeap  uint64

	traced bool
	calls  int
	busy   time.Duration
}

func (m *meteredSource) Next() (*dag.Job, error) {
	if m.blockJobs > 0 && m.n%m.blockJobs == 0 {
		m.stamps = append(m.stamps, time.Now())
	}
	if m.heapEvery > 0 && m.n%m.heapEvery == 0 {
		m.sampleHeap()
	}
	m.n++
	if !m.traced {
		return m.src.Next()
	}
	t := time.Now()
	j, err := m.src.Next()
	m.busy += time.Since(t)
	m.calls++
	return j, err
}

func (m *meteredSource) sampleHeap() {
	runtime.GC()
	metrics.Read(m.heap)
	m.peakHeap = max(m.peakHeap, m.heap[0].Value.Uint64())
}

// timedScheduler counts and times every Pick. internal/sim makes no type
// assertions on its Scheduler, so the wrapper changes no decision.
type timedScheduler struct {
	s     sim.Scheduler
	calls int
	busy  time.Duration
}

func (t *timedScheduler) Name() string { return t.s.Name() }

func (t *timedScheduler) Pick(c *sim.Cluster) sim.Decision {
	start := time.Now()
	d := t.s.Pick(c)
	t.busy += time.Since(start)
	t.calls++
	return d
}

// streamInputs are the set-up products shared by every rep.
type streamInputs struct {
	p     streamParams
	seed  int64
	cfg   sim.Config
	rps   float64
	newSc sched.Factory
}

func newStreamInputs(p streamParams, seed int64) (*streamInputs, error) {
	grid, err := carbon.GridByName(p.Grid)
	if err != nil {
		return nil, err
	}
	rps := p.Utilization * float64(p.Executors) / p.MeanJobWorkS
	// Cover the whole arrival span, as the hyperscale artifact does: past
	// its end the trace holds its last sample, which would change what
	// a carbon-aware policy decides.
	hours := int(float64(p.JobsPerRep)/rps/60) + 200
	f, err := sched.Default().New(p.Policy)
	if err != nil {
		return nil, err
	}
	return &streamInputs{
		p: p, seed: seed, rps: rps, newSc: f,
		cfg: sim.Config{
			NumExecutors: p.Executors,
			Trace:        carbon.Synthesize(grid, hours, 60, p.TraceSeed),
			MoveDelay:    p.MoveDelayS,
			Seed:         seed,
			MaxEvents:    2_000_000_000,
		},
	}, nil
}

func (in *streamInputs) source(jobs int) (*workload.Source, error) {
	proc, err := arrivals.New(arrivals.Spec{Kind: arrivals.KindConstant, RPS: in.rps})
	if err != nil {
		return nil, err
	}
	return workload.NewSource(workload.GenConfig{N: jobs, Arrivals: proc, Mix: workload.MixTPCH, Seed: in.seed})
}

// streamRep is one RunStream call's measurements. It keeps no reference
// to the run's result or source, so the reps a run has already made do
// not add to the live heap of the ones after them.
type streamRep struct {
	wall   time.Duration
	cpu    time.Duration
	blocks []time.Duration
	digest streamDigest
	allocs uint64

	events, recycled     int
	nextCalls, pickCalls int
	nextBusy, pickBusy   time.Duration
}

// rep makes one timed RunStream call of jobs jobs.
func (in *streamInputs) rep(jobs int, traced bool) (*streamRep, error) {
	src, err := in.source(jobs)
	if err != nil {
		return nil, err
	}
	m := &meteredSource{src: src, blockJobs: in.p.BlockJobs, traced: traced,
		stamps: make([]time.Time, 0, jobs/in.p.BlockJobs+2)}
	var s sim.Scheduler = in.newSc(in.seed)
	ts := &timedScheduler{s: s}
	if traced {
		s = ts
	}
	runtime.GC()
	a0 := heapAllocs()
	c0 := cpuTime()
	start := time.Now()
	res, err := sim.RunStream(in.cfg, m, s)
	wall := time.Since(start)
	cpu := cpuTime() - c0
	allocs := heapAllocs() - a0
	if err != nil {
		return nil, err
	}
	r := &streamRep{wall: wall, cpu: cpu, digest: digestOf(res), allocs: allocs,
		events: res.Events, recycled: res.Stream.RecycledRuns,
		nextCalls: m.calls, nextBusy: m.busy, pickCalls: ts.calls, pickBusy: ts.busy}
	for i := 1; i < len(m.stamps); i++ {
		r.blocks = append(r.blocks, m.stamps[i].Sub(m.stamps[i-1]))
	}
	return r, nil
}

// memoryRep makes one untimed RunStream call of jobs jobs and returns
// its digest and the highest live heap it held at the sampled
// admissions, less the live heap just before the call.
func (in *streamInputs) memoryRep(jobs int) (streamDigest, uint64, error) {
	src, err := in.source(jobs)
	if err != nil {
		return streamDigest{}, 0, err
	}
	m := &meteredSource{src: src, heapEvery: in.p.HeapEvery, heap: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	m.sampleHeap()
	base := m.peakHeap
	res, err := sim.RunStream(in.cfg, m, in.newSc(in.seed))
	if err != nil {
		return streamDigest{}, 0, err
	}
	m.sampleHeap()
	return digestOf(res), m.peakHeap - base, nil
}

// drainAllocs counts the heap objects allocated by generating jobs jobs
// alone, so the engine's own allocations can be told apart.
func (in *streamInputs) drainAllocs(jobs int) (uint64, error) {
	src, err := in.source(jobs)
	if err != nil {
		return 0, err
	}
	a0 := heapAllocs()
	for {
		j, err := src.Next()
		if err != nil {
			return 0, err
		}
		if j == nil {
			break
		}
	}
	return heapAllocs() - a0, nil
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// runStream is the stream-fifo workload.
func runStream(o options, p streamParams) (*outcome, error) {
	out := newOutcome()
	c0 := cpuTime()
	in, err := newStreamInputs(p, o.seed)
	if err != nil {
		return nil, err
	}
	// The warm-up stream takes the default seed whatever the run's, so
	// that set-up does the same work on every run.
	warm := *in
	warm.seed, warm.cfg.Seed = defaultSeed, defaultSeed
	if _, err := warm.rep(p.WarmupJobs, false); err != nil {
		return nil, fmt.Errorf("warm-up stream: %w", err)
	}
	runtime.GC()
	out.setup = cpuTime() - c0
	if o.setupOnly {
		return out, nil
	}

	var chk digestCheck
	if o.seed == defaultSeed {
		if p.Digest == nil {
			return nil, fmt.Errorf("no digest recorded for seed %d", defaultSeed)
		}
		chk.want = p.Digest
	}
	check := func(r *streamRep) { chk.check(out, r.digest) }

	// A traced run alternates untraced reps, the overhead baseline, with
	// traced ones, so that a machine slowing down mid-run does not show
	// as tracing overhead.
	var plain, traced []*streamRep
	var drain uint64
	if o.trace {
		if drain, err = in.drainAllocs(p.JobsPerRep); err != nil {
			return nil, err
		}
	}
	rec := newRecorder()
	gcTraced := 0.0
	t0 := time.Now()
	for len(plain) < 2 || (o.trace && len(traced) < 1) || time.Since(t0) < o.seconds {
		r, err := in.rep(p.JobsPerRep, false)
		if err != nil {
			return nil, err
		}
		check(r)
		plain = append(plain, r)
		if !o.trace {
			continue
		}
		gc0, start := gcCPUSeconds(), time.Now()
		if r, err = in.rep(p.JobsPerRep, true); err != nil {
			return nil, err
		}
		rec.record("sim.RunStream", 0, 0, start, time.Now())
		gcTraced += gcCPUSeconds() - gc0
		check(r)
		traced = append(traced, r)
	}
	out.notes = append(out.notes, fmt.Sprintf("digest %+v", plain[0].digest))
	var rates, cpuRates []float64
	var blocks []time.Duration
	for _, r := range plain {
		rates = append(rates, float64(p.JobsPerRep)/r.wall.Seconds())
		cpuRates = append(cpuRates, float64(p.JobsPerRep)/r.cpu.Seconds())
		blocks = append(blocks, r.blocks...)
	}
	lat := sortedMillis(blocks)
	if !o.trace {
		d, peak, err := in.memoryRep(p.JobsPerRep)
		if err != nil {
			return nil, err
		}
		chk.check(out, d)
		out.notes = append(out.notes, fmt.Sprintf("jobs per CPU-second per rep: %.0f", cpuRates))
		out.endToEnd(median(cpuRates), quantile(lat, 0.5), lat, fmt.Sprintf("wall time per %d admitted jobs", p.BlockJobs), float64(peak)/(1<<20))
		out.figure("stream_jobs_per_s", median(rates), "jobs/s")
		out.figure("stream_peak_live_heap_mib", float64(peak)/(1<<20), "MiB")
		out.reps = len(plain)
		return out, nil
	}
	out.wallFigures(median(rates), quantile(lat, 0.5), lat)

	var walls, plainWalls []float64
	for _, r := range plain {
		plainWalls = append(plainWalls, r.wall.Seconds())
	}
	// Per-layer figures are per rep, medians over the traced reps.
	col := map[string][]float64{}
	add := func(k string, v float64) { col[k] = append(col[k], v) }
	jobs := float64(p.JobsPerRep)
	for _, r := range traced {
		w := r.wall.Seconds()
		walls = append(walls, w)
		self := w - r.nextBusy.Seconds() - r.pickBusy.Seconds()
		add("workload.next_calls", float64(r.nextCalls))
		add("workload.next_s", r.nextBusy.Seconds())
		add("sched.pick_calls", float64(r.pickCalls))
		add("sched.pick_s", r.pickBusy.Seconds())
		add("sim.self_s", self)
		add("sim.events", float64(r.events))
		add("sim.ns_per_event", self*1e9/float64(r.events))
		add("sim.allocs_per_job", (float64(r.allocs)-float64(drain))/jobs)
		add("sim.pool_hit_ratio", float64(r.recycled)/float64(r.digest.Admitted))
		add("sim.peak_in_flight", float64(r.digest.PeakInFlight))
	}
	for k, v := range col {
		out.metrics[k] = median(v)
	}
	out.metrics["workload.allocs_per_job"] = float64(drain) / jobs
	out.metrics["runtime.gc_cpu_s"] = gcTraced / float64(len(traced))
	wall := median(walls)
	out.metrics["trace.overhead_s"] = wall - median(plainWalls)
	m := out.metrics
	out.shareOf = "the traced RunStream call's wall time"
	out.layers = []layerRow{
		{"workload", "Source.Next", m["workload.next_calls"], m["workload.next_s"], wall},
		{"sched", "Pick", m["sched.pick_calls"], m["sched.pick_s"], wall},
		{"sim", "RunStream self (events)", m["sim.events"], m["sim.self_s"], wall},
	}
	out.reps = len(traced)
	return out, rec.write(o.spansDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
}
