package experiments

import (
	"context"
	"fmt"
	"sync"

	"pcaps/internal/carbonapi"
	"pcaps/internal/result"
)

// Service implements carbonapi.Experiments: the artifact table served
// over HTTP, with on-demand execution. Every run is forced into Fast
// mode so a request costs seconds, not a full paper sweep — the /v1
// surface is a smoke-and-inspection endpoint, not a batch farm; the full
// matrices stay behind pcapsim.
//
// Service is safe for concurrent use: each Run builds its own worker
// pool, every stochastic choice is derived from per-cell seed hashing,
// and the shared trace cache is read-only after construction — the same
// properties the parallel experiment engine already relies on.
//
// Because a run is a pure function of (id, Options) and Options is fixed
// for the Service's lifetime, completed artifacts are cached per ID with
// a once-guard: concurrent requests for the same artifact share a single
// simulation, and repeat fetches are free. Cached artifacts are
// immutable after Run returns, so handing the same pointer to concurrent
// encoders is safe. Concurrent requests for *distinct* artifacts still
// run independently (bounded by the table's size).
type Service struct {
	// Options is the template each request starts from (seed, grids,
	// parallelism). Fast is forced; the zero value serves the standard
	// fast configuration. Must not be mutated after the first Run.
	Options Options

	mu    sync.Mutex
	cache map[string]*serviceRun
}

// serviceRun is one artifact's cached outcome; the once-guard
// deduplicates concurrent first requests.
type serviceRun struct {
	once sync.Once
	art  *result.Artifact
	err  error
}

// List implements carbonapi.Experiments.
func (s *Service) List() []carbonapi.ExperimentInfo {
	infos := List()
	out := make([]carbonapi.ExperimentInfo, len(infos))
	for i, info := range infos {
		out[i] = carbonapi.ExperimentInfo{ID: info.ID, Title: info.Title}
	}
	return out
}

// Run implements carbonapi.Experiments.
func (s *Service) Run(ctx context.Context, id string) (*result.Artifact, error) {
	// Runners are not cancellable mid-simulation; honor an
	// already-expired context rather than starting doomed work.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.cache == nil {
		s.cache = map[string]*serviceRun{}
	}
	r, ok := s.cache[id]
	if !ok {
		r = &serviceRun{}
		s.cache[id] = r
	}
	s.mu.Unlock()
	r.once.Do(func() {
		// A panicking runner would otherwise leave the once-guard done
		// with nothing cached: this request's connection would drop and
		// every later one would get an empty 200. As an error it is
		// cached like any other failure, so every request answers 500.
		defer func() {
			if p := recover(); p != nil {
				r.err = fmt.Errorf("experiments: %s panicked: %v", id, p)
			}
		}()
		opt := s.Options
		opt.Fast = true
		rep, err := Run(id, opt)
		if err != nil {
			// A failure is as deterministic as a success (unknown ID,
			// invalid grid set), so caching it is correct too.
			r.err = err
			return
		}
		r.art = rep.Artifact
	})
	return r.art, r.err
}
