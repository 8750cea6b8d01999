package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pcaps/internal/carbon"
	"pcaps/internal/carbonapi"
	"pcaps/internal/seed"
	"pcaps/internal/sim"
)

// Pool bounds the worker goroutines that simulation cells fan out over.
// It is the one worker pool of the repository: internal/experiments
// creates one per Run/RunAll (NewPool) and hands it to its runners and
// to the scenario programs its built-in artifacts compile, so nested
// fan-outs draw from one process-wide worker budget. The caller of
// ForEach always works through cells itself, and extras are spawned
// only while permits are free (non-blocking, so nested fan-outs degrade
// to serial instead of deadlocking, and the bound caps the whole run
// rather than each level).
type Pool struct {
	// tokens holds one permit per worker beyond the caller, so a
	// parallelism of 1 never admits a second goroutine.
	tokens chan struct{}
}

// NewPool returns a Pool bounded to the given parallelism: 0 selects
// GOMAXPROCS, 1 runs every cell on the calling goroutine.
func NewPool(parallel int) *Pool {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &Pool{tokens: make(chan struct{}, parallel-1)}
}

// ForEach runs fn(i) exactly once for every i in [0, n) and returns
// only when all calls finish. The calls run in any order and with any
// concurrency the budget allows, because every cell derives its
// randomness from its own identity (seed.Derive), never from execution
// order. A panic in fn stops further dispatch and re-raises in the
// caller once in-flight workers drain, so a fail-fast panic crosses
// goroutines without minutes of wasted simulation behind it.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	next.Store(-1)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				failed.Store(true)
				panicMu.Lock()
				if panicked == nil {
					panicked = r
				}
				panicMu.Unlock()
			}
		}()
		for !failed.Load() {
			i := int(next.Add(1))
			if i >= n {
				return
			}
			fn(i)
		}
	}
spawn:
	for extras := 0; extras < n-1; extras++ {
		select {
		case p.tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.tokens }()
				work()
			}()
		default:
			break spawn
		}
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// TraceProvider resolves one cluster's carbon source to a trace. hours
// and synthSeed apply to the "synth" source (the seed already carries
// the grid's carbon.SynthSeed offset); csv and carbonapi sources return
// the trace as stored/served. Injected by tests and by servers that must
// not touch the filesystem or network on behalf of a request.
type TraceProvider interface {
	Trace(c ClusterSpec, hours int, synthSeed int64) (*carbon.Trace, error)
}

// Sources is the default TraceProvider: calibrated synthesis through
// SynthTrace's process-wide cache (the one the hand-written experiment
// runners read too), CSV files, and live carbonapi fetches.
type Sources struct{}

// fetchTimeout bounds one carbonapi trace fetch: a full three-year
// trace is ~26k samples.
const fetchTimeout = 30 * time.Second

type synthKey struct {
	grid  string
	hours int
	seed  int64
}

type synthEntry struct {
	once sync.Once
	tr   *carbon.Trace
}

// synthCache shares synthesized traces across scenario runs and
// experiment runners; traces are read-only after construction, so
// concurrent reuse is safe. Entries are capped: a long-lived server
// answering specs with ever-new (seed, hours) pairs must not accumulate
// traces forever, so past the cap new keys synthesize uncached
// (correctness is unaffected — the cache is purely a de-duplication of
// pure-function results).
var (
	synthCache      sync.Map // synthKey → *synthEntry
	synthCacheCount atomic.Int64
)

// maxSynthCacheEntries bounds the cache: 64 three-year traces ≈ 13 MB,
// comfortably above what `-exp all` plus the examples touch.
const maxSynthCacheEntries = 64

// SynthTrace returns carbon.Synthesize(spec, hours, 60, seed), computed
// once per process for each (grid, hours, seed) while the cache has
// room. Concurrent first calls for one key synthesize once between them.
// The returned trace is shared and must not be modified.
func SynthTrace(spec carbon.GridSpec, hours int, seed int64) *carbon.Trace {
	key := synthKey{grid: spec.Name, hours: hours, seed: seed}
	v, ok := synthCache.Load(key)
	if !ok {
		if synthCacheCount.Load() >= maxSynthCacheEntries {
			return carbon.Synthesize(spec, hours, 60, seed)
		}
		var loaded bool
		v, loaded = synthCache.LoadOrStore(key, &synthEntry{})
		if !loaded {
			synthCacheCount.Add(1)
		}
	}
	e := v.(*synthEntry)
	e.once.Do(func() { e.tr = carbon.Synthesize(spec, hours, 60, seed) })
	return e.tr
}

// Trace implements TraceProvider.
func (s Sources) Trace(c ClusterSpec, hours int, synthSeed int64) (*carbon.Trace, error) {
	switch src := c.Source; src {
	case "", "synth":
		spec, err := carbon.GridByName(c.Grid)
		if err != nil {
			return nil, err
		}
		return SynthTrace(spec, hours, synthSeed), nil
	case "csv":
		f, err := os.Open(c.CSV)
		if err != nil {
			return nil, fmt.Errorf("scenario: carbon source for %q: %w", c.Grid, err)
		}
		defer f.Close()
		return carbon.ReadCSV(f, c.Grid, 60)
	case "carbonapi":
		ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
		defer cancel()
		client := carbonapi.NewClient(c.URL)
		// Relax the client's default 5-second poll timeout: a full
		// three-year trace window legitimately takes longer. The context
		// deadline above still bounds the call.
		client.HTTPClient = &http.Client{Timeout: fetchTimeout}
		tr, err := client.FetchTrace(ctx, c.Grid, 0, hours)
		if err != nil {
			return nil, fmt.Errorf("scenario: carbon source for %q: %w", c.Grid, err)
		}
		return tr, nil
	default:
		return nil, fieldErr("source", "unknown carbon source %q", c.Source)
	}
}

// TrialWindow returns the trace window of one randomized trial (§6.1): a
// uniformly random start offset into the grid's history, drawn from an
// RNG seeded by the cell's identity, so the window depends only on the
// cell — not on how many draws other cells made first — and serial and
// parallel runs see identical windows. The cell seed is domain-separated
// first because the cell's job batch consumes the undecorated seed;
// without separation the offset would be the batch stream's first draw.
// A trace no longer than the window is returned whole.
func TrialWindow(tr *carbon.Trace, windowHours int, cellSeed int64) *carbon.Trace {
	maxStart := len(tr.Values) - windowHours
	if maxStart < 1 {
		return tr
	}
	rng := rand.New(rand.NewSource(seed.Derive(cellSeed, "trace-offset")))
	off := float64(rng.Intn(maxStart)) * tr.Interval
	return tr.Slice(off, float64(windowHours)*tr.Interval)
}

// PaperSimConfig returns the engine configuration of one of the paper's
// two cluster environments, with the given trace and seed. It is the
// only definition of either.
//
// The Spark-standalone simulator (§5.2) has 100 shared executors that
// applications retain under dynamic allocation until a 60-second idle
// timeout, with a one-second cross-job move delay.
//
// With proto, the Kubernetes prototype (§6.3) has 50 worker VMs hosting
// two executor pods each. Pod startup (3 s) is the cross-job move
// delay, Spark caps an application at 25 executors, and idle pods
// linger for executorIdleTimeout (60 s).
func PaperSimConfig(proto bool, tr *carbon.Trace, seed int64) sim.Config {
	if proto {
		return sim.Config{
			NumExecutors:  50 * 2,
			Trace:         tr,
			MoveDelay:     3,
			PerJobCap:     25,
			HoldExecutors: true,
			IdleTimeout:   60,
			Seed:          seed,
		}
	}
	return sim.Config{
		NumExecutors:  100,
		Trace:         tr,
		MoveDelay:     1,
		HoldExecutors: true,
		IdleTimeout:   60,
		Seed:          seed,
	}
}
