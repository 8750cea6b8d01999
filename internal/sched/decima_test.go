package sched

import (
	"math"
	"slices"
	"testing"

	"pcaps/internal/sim"
)

// referenceDistribution computes Decima's distribution the direct way,
// every input read per ref: the mask from PlannedLimit, the job's
// remaining work summed from its stages, and the stage's critical path
// from a fresh CriticalPathWorkDown.
func referenceDistribution(c *sim.Cluster, d *Decima) ([]sim.StageRef, []float64) {
	remaining := func(j *sim.JobRun) float64 {
		var w float64
		for _, s := range j.Stages {
			w += float64(s.Stage.NumTasks-s.Completed) * s.Stage.TaskDuration
		}
		return w
	}
	var refs []sim.StageRef
	maxRemain := 0.0
	for _, r := range c.Runnable() {
		if r.Stage.Running < d.PlannedLimit(c, r) {
			refs = append(refs, r)
			if w := remaining(r.Job); w > maxRemain {
				maxRemain = w
			}
		}
	}
	if len(refs) == 0 {
		return nil, nil
	}
	scores := make([]float64, len(refs))
	maxScore := math.Inf(-1)
	for i, r := range refs {
		jobRemain := remaining(r.Job)
		cpNorm := 0.0
		if jobRemain > 0 {
			cpNorm = r.Job.Job.CriticalPathWorkDown()[r.Stage.Stage.ID] / jobRemain
			if cpNorm > 1 {
				cpNorm = 1
			}
		}
		srptNorm := 0.0
		if maxRemain > 0 {
			srptNorm = jobRemain / maxRemain
		}
		scores[i] = (decimaCPWeight*cpNorm - decimaSRPTWeight*srptNorm) / decimaTemperature
		if scores[i] > maxScore {
			maxScore = scores[i]
		}
	}
	probs := make([]float64, len(scores))
	var sum float64
	for i, s := range scores {
		probs[i] = math.Exp(s - maxScore)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return refs, probs
}

// pinnedDecima checks at every Pick that Decima's distribution equals
// referenceDistribution bit for bit, then picks as Decima.
type pinnedDecima struct {
	t     *testing.T
	d     *Decima
	picks int
}

func (p *pinnedDecima) Name() string { return p.d.Name() }

func (p *pinnedDecima) Pick(c *sim.Cluster) sim.Decision {
	wantRefs, wantProbs := referenceDistribution(c, p.d)
	refs, probs := p.d.Distribution(c)
	if !slices.Equal(refs, wantRefs) {
		p.t.Fatalf("t=%v: Distribution keeps %d refs, the reference %d (or in another order)", c.Now(), len(refs), len(wantRefs))
	}
	for i := range probs {
		if math.Float64bits(probs[i]) != math.Float64bits(wantProbs[i]) {
			p.t.Fatalf("t=%v: ref %d has probability %v, the reference %v", c.Now(), i, probs[i], wantProbs[i])
		}
	}
	p.picks++
	return p.d.Pick(c)
}

// TestDecimaDistributionMatchesReference pins Decima's distribution to
// the per-ref formula at every Pick of a hold-mode Run under a per-job
// cap (capped jobs leave the view, held executors stay charged) and of
// a RunStream whose records are recycled (the critical-path cache must
// notice a record's new job). Both runs reach Picks at which a job with
// the most remaining work has every runnable stage masked, so that job
// must not set the SRPT normalizer.
func TestDecimaDistributionMatchesReference(t *testing.T) {
	tr := deTrace(t)
	jobs := tpchBatch(t, 30, 9)

	p := &pinnedDecima{t: t, d: NewDecima(3)}
	cfg := sim.Config{NumExecutors: 20, Trace: tr, MoveDelay: 1, Seed: 1, HoldExecutors: true, IdleTimeout: 8, PerJobCap: 4}
	if _, err := sim.Run(cfg, jobs, p); err != nil {
		t.Fatal(err)
	}
	if p.picks < 50 {
		t.Fatalf("hold-mode run made %d Picks; fixture too small", p.picks)
	}

	p = &pinnedDecima{t: t, d: NewDecima(3)}
	cfg = sim.Config{NumExecutors: 20, Trace: tr, MoveDelay: 1, Seed: 1}
	res, err := sim.RunStream(cfg, &sim.SliceSource{Jobs: jobs}, p)
	if err != nil {
		t.Fatal(err)
	}
	if p.picks < 500 || res.Stream.RecycledRuns == 0 {
		t.Fatalf("stream made %d Picks and recycled %d records; fixture too small", p.picks, res.Stream.RecycledRuns)
	}
}
