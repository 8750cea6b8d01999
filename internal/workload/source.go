package workload

import (
	"fmt"
	"math"
	"math/rand"

	"pcaps/internal/arrivals"
	"pcaps/internal/dag"
)

// Source yields the jobs of a generated batch one at a time, in arrival
// order, without materializing the batch: the lazy form of Generate for
// the hyperscale streaming engine (sim.RunStream). Configuration errors
// surface at NewSource; a schedule label naming no declared class — only
// detectable at its arrival — surfaces from the failing Next.
//
// The draw interleaving per job (class pick, then shape draws, then the
// arrival process's gap draw) is exactly Generate's, from the same
// single seeded stream, so draining a Source reproduces the materialized
// batch byte for byte — Generate itself is a loop over one.
type Source struct {
	cfg         GenConfig
	proc        arrivals.Process
	schedule    arrivals.Schedule // proc when it replays a schedule; zero, labeling nothing, otherwise
	byName      map[string]int
	totalWeight float64
	r           *rand.Rand
	t           float64
	i           int
}

// NewSource validates the configuration and positions a fresh source at
// the first arrival.
func NewSource(cfg GenConfig) (*Source, error) {
	if cfg.N < 0 {
		return nil, fmt.Errorf("workload: negative batch size %d", cfg.N)
	}
	proc := cfg.Arrivals
	if proc == nil {
		proc = arrivals.Poisson{MeanSec: arrivals.DefaultPoissonMeanSec}
	}
	schedule, replay := proc.(arrivals.Schedule)
	if replay && cfg.N > schedule.Len() {
		return nil, fmt.Errorf("workload: batch of %d jobs exceeds the %d-arrival schedule", cfg.N, schedule.Len())
	}
	byName := make(map[string]int, len(cfg.Classes))
	var totalWeight float64
	for i, c := range cfg.Classes {
		if c.Weight <= 0 || math.IsNaN(c.Weight) || math.IsInf(c.Weight, 0) {
			return nil, fmt.Errorf("workload: class %q weight %v is not positive", c.Name, c.Weight)
		}
		if _, dup := byName[c.Name]; dup {
			return nil, fmt.Errorf("workload: duplicate class name %q", c.Name)
		}
		byName[c.Name] = i
		totalWeight += c.Weight
	}
	s := &Source{
		cfg:         cfg,
		proc:        proc,
		schedule:    schedule,
		byName:      byName,
		totalWeight: totalWeight,
		r:           rand.New(rand.NewSource(cfg.Seed)),
	}
	if replay {
		s.t = schedule.Start()
	}
	return s, nil
}

// Next builds and returns the next job, or (nil, nil) once N jobs have
// been yielded. Each returned job is freshly built and owned by the
// caller.
func (s *Source) Next() (*dag.Job, error) {
	if s.i >= s.cfg.N {
		return nil, nil
	}
	i := s.i
	var j *dag.Job
	if len(s.cfg.Classes) == 0 {
		j = fromMix(s.cfg.Mix, s.r, i)
	} else {
		ci := -1
		if label := s.schedule.ClassAt(i); label != "" {
			idx, ok := s.byName[label]
			if !ok {
				return nil, fmt.Errorf("workload: schedule arrival %d names unknown class %q", i, label)
			}
			ci = idx
		}
		if ci < 0 {
			// Weighted class pick; the draw precedes the job's shape
			// draws so a schedule with partial labels stays replayable.
			u := s.r.Float64() * s.totalWeight
			for k := range s.cfg.Classes {
				u -= s.cfg.Classes[k].Weight
				ci = k
				if u < 0 {
					break
				}
			}
		}
		c := s.cfg.Classes[ci]
		j = fromMix(c.Mix, s.r, i)
		j.Class = c.Name
		if c.WorkScale > 0 && c.WorkScale != 1 {
			for _, st := range j.Stages {
				st.TaskDuration *= c.WorkScale
			}
		}
	}
	j.Arrival = s.t
	s.t += s.proc.Gap(i, s.t, s.r)
	s.i++
	return j, nil
}
