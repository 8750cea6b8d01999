package experiments

import (
	"pcaps/internal/scenario"
	"pcaps/internal/seed"
)

// pool bounds the total worker goroutines of one experiment run. A single
// pool is created per Run/RunAll call and shared by every nested forEach
// (artifact fan-out, per-runner cell fan-out), so Options.Parallel is a
// true process-wide cap rather than a per-level multiplier. The worker
// machinery itself lives in internal/scenario (scenario.NewPool): one
// implementation of the non-blocking shared-budget pool serves both the
// hand-written runners here and compiled scenarios.
type pool struct {
	inner scenario.Pool
}

func newPool(parallel int) *pool {
	return &pool{inner: scenario.NewPool(parallel)}
}

// forEach runs fn(i) for every i in [0, n). The calling goroutine always
// works through the cells itself; extra workers are spawned only while
// pool permits are free (non-blocking acquire, so nested fan-outs can
// never deadlock — they just proceed serially when the budget is spent).
// A nil pool runs serially. Worker panics are captured, stop further
// cells from being dispatched, and the first one is re-raised in the
// caller after in-flight workers drain — preserving mustRun's fail-fast
// contract across goroutine boundaries without minutes of wasted
// simulation behind a doomed run.
//
// fn must make every stochastic choice from seeds derived via cellSeed so
// that results do not depend on which worker runs which cell or in what
// order; callers collect per-cell outputs into index i of a pre-sized
// slice and fold them serially afterwards.
func forEach(p *pool, n int, fn func(i int)) {
	if p == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.inner.ForEach(n, fn)
}

// cellSeed derives the RNG seed of one experiment cell from the run seed
// and the cell's coordinates (grid name plus integer axes such as batch
// size and trial index). Hashing makes each cell's stochastic choices a
// pure function of its identity rather than of how many draws earlier
// cells made, so serial and parallel execution produce identical results.
func cellSeed(base int64, grid string, coords ...int64) int64 {
	return seed.Derive(base, grid, coords...)
}
