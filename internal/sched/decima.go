package sched

import (
	"math"
	"math/rand"

	"pcaps/internal/sim"
)

// Probabilistic is the class of schedulers PCAPS interfaces with
// (Def. 4.1): at each scheduling event it exposes a probability
// distribution over the runnable stages, from which the next scheduled
// stage is sampled.
type Probabilistic interface {
	sim.Scheduler
	// Distribution returns the runnable stage references and a matching
	// probability vector (non-negative, summing to 1 unless empty).
	// Both slices may be scheduler-owned scratch: they are valid only
	// until the next Distribution or Pick call and must not be retained
	// or modified by the caller.
	Distribution(c *sim.Cluster) ([]sim.StageRef, []float64)
	// PlannedLimit returns the parallelism limit the scheduler would
	// assign the stage absent any carbon awareness (the P that PCAPS
	// scales down, §5.1).
	PlannedLimit(c *sim.Cluster, ref sim.StageRef) int
}

// Decima is the Decima-like probabilistic scheduler — the substitution for
// the paper's GNN+RL scheduler [48] documented in DESIGN.md. Per-stage
// scores combine the two signals Decima's learned policy is known to
// encode: bottleneck pressure (downstream critical-path work within the
// job) and shortest-remaining-work-first across jobs. A masked softmax
// over runnable stages yields the distribution, exactly the interface
// Def. 4.1 requires; the next stage is sampled from it.
type Decima struct {
	// Seed drives stage sampling.
	Seed int64

	rng *rand.Rand
	cp  cpCache
	// Per-Pick scratch, reused across calls: the filtered runnable refs,
	// each ref's job-remaining-work (parallel to refs), and the score /
	// probability vectors. Distribution returns refs and probs directly,
	// so its results are valid only until the next Distribution call.
	refs      []sim.StageRef
	jobRemain []float64
	scores    []float64
	probs     []float64
}

// Decima's score weights: a stage scores decimaCPWeight × its
// normalized downstream critical path minus decimaSRPTWeight × its job's
// normalized remaining work, divided by decimaTemperature before the
// softmax (lower is greedier). The weights were tuned so Decima beats
// FIFO on JCT across the TPC-H and Alibaba workloads while keeping the
// distribution spread informative for PCAPS's relative-importance
// signal.
const (
	decimaCPWeight    = 3
	decimaSRPTWeight  = 4
	decimaTemperature = 1
)

// NewDecima returns a Decima-like scheduler.
func NewDecima(seed int64) *Decima {
	return &Decima{Seed: seed}
}

// Name implements sim.Scheduler.
func (d *Decima) Name() string { return "Decima" }

// Distribution implements Probabilistic. The distribution masks not only
// non-runnable stages but also stages already saturated under the planned
// executor cap, so every sampled action is executable (the masked-softmax
// semantics of Decima's action space).
//
//pcaps:hotpath
func (d *Decima) Distribution(c *sim.Cluster) ([]sim.StageRef, []float64) {
	// The view is job-major, so the per-job inputs — remaining work, the
	// work-derived grant and the critical-path vector — are read once at
	// each job boundary. Every kept ref records its job's remaining work
	// (d.jobRemain) and its normalized critical path (scores, until the
	// SRPT term joins it below).
	runnable, remains, scores := d.refs[:0], d.jobRemain[:0], d.scores[:0]
	maxRemain := 0.0
	var (
		lastJob   *sim.JobRun
		jobRemain float64
		grant     int
		cp        []float64
	)
	for _, r := range c.Runnable() {
		if r.Job != lastJob {
			lastJob = r.Job
			jobRemain = r.Job.RemainingWork()
			grant = workDerivedCap(c, jobRemain)
			cp = d.cp.get(r.Job)
		}
		if r.Stage.Running >= plannedLimit(r.Stage, grant) {
			continue
		}
		cpNorm := 0.0
		if jobRemain > 0 {
			cpNorm = cp[r.Stage.Stage.ID] / jobRemain
			if cpNorm > 1 {
				cpNorm = 1
			}
		}
		if jobRemain > maxRemain {
			maxRemain = jobRemain
		}
		runnable = append(runnable, r)
		remains = append(remains, jobRemain)
		scores = append(scores, cpNorm)
	}
	d.refs, d.jobRemain, d.scores = runnable, remains, scores
	if len(runnable) == 0 {
		return nil, nil
	}
	maxScore := math.Inf(-1)
	for i, cpNorm := range scores {
		srptNorm := 0.0
		if maxRemain > 0 {
			srptNorm = remains[i] / maxRemain
		}
		scores[i] = (decimaCPWeight*cpNorm - decimaSRPTWeight*srptNorm) / decimaTemperature
		if scores[i] > maxScore {
			maxScore = scores[i]
		}
	}
	// Masked softmax (runnable stages only), stabilized by max-shift.
	if cap(d.probs) < len(scores) {
		//hot:alloc one-time scratch growth to the runnable high-water mark
		d.probs = make([]float64, len(scores))
	}
	probs := d.probs[:len(scores)]
	var sum float64
	for i, s := range scores {
		probs[i] = math.Exp(s - maxScore)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return runnable, probs
}

// GrantDivisor tunes the work-derived per-job executor cap used by the
// carbon-agnostic managed schedulers: a job with w executor-seconds of
// remaining work is granted about w/GrantDivisor executors. This encodes
// the diminishing returns of parallelism that Decima's learned policy
// discovers ([48] §5.2: "more executors are not necessarily better") —
// modest per-job parallelism keeps executors productive instead of idling
// at stage barriers, which is where Decima's carbon advantage over the
// over-granting FIFO comes from (Table 3).
const GrantDivisor = 40

// workDerivedCap returns the per-job grant cap for a job with the given
// remaining work, bounded by an even cluster split across active jobs.
//
//pcaps:hotpath
func workDerivedCap(c *sim.Cluster, remaining float64) int {
	active := len(c.ActiveJobs())
	if active < 1 {
		active = 1
	}
	share := (c.K() + active - 1) / active
	cap := int(math.Ceil(remaining / GrantDivisor))
	if cap > share {
		cap = share
	}
	if cap < 1 {
		cap = 1
	}
	return cap
}

// PlannedLimit implements Probabilistic: the stage may use up to its
// remaining tasks, capped by the job's work-derived executor grant — the
// executor-cap component of Decima's action space ([48] §5.2) that
// prevents one job from hogging (and idling) cluster resources.
//
//pcaps:hotpath
func (d *Decima) PlannedLimit(c *sim.Cluster, ref sim.StageRef) int {
	return plannedLimit(ref.Stage, workDerivedCap(c, ref.Job.RemainingWork()))
}

// plannedLimit is PlannedLimit for a stage whose job's grant is known.
//
//pcaps:hotpath
func plannedLimit(st *sim.StageRun, grant int) int {
	limit := st.RemainingTasks() + st.Running
	if limit > grant {
		limit = grant
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}

// Pick implements sim.Scheduler: sample a stage from the distribution and
// schedule it with the planned limit (carbon-agnostic behaviour).
//
//pcaps:hotpath
func (d *Decima) Pick(c *sim.Cluster) sim.Decision {
	refs, probs := d.Distribution(c)
	if len(refs) == 0 {
		return sim.DeferDecision
	}
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(d.Seed))
	}
	v := sampleIndex(d.rng, probs)
	return sim.Decision{Ref: refs[v], Limit: d.PlannedLimit(c, refs[v])}
}

// UniformPB is the simplest member of the Def. 4.1 class: a uniform
// distribution over runnable stages. It exists to demonstrate (and test)
// that PCAPS interoperates with any probabilistic scheduler, not just
// the Decima-like one — under UniformPB every stage has relative
// importance 1, so PCAPS degenerates to pure carbon-aware provisioning.
type UniformPB struct {
	// Seed drives sampling.
	Seed int64
	rng  *rand.Rand
	// probs is per-call scratch; Distribution's results are valid only
	// until its next call.
	probs []float64
}

// Name implements sim.Scheduler.
func (u *UniformPB) Name() string { return "UniformPB" }

// Distribution implements Probabilistic with equal mass per runnable
// stage.
//
//pcaps:hotpath
func (u *UniformPB) Distribution(c *sim.Cluster) ([]sim.StageRef, []float64) {
	runnable := c.Runnable()
	if len(runnable) == 0 {
		return nil, nil
	}
	if cap(u.probs) < len(runnable) {
		//hot:alloc one-time scratch growth to the runnable high-water mark
		u.probs = make([]float64, len(runnable))
	}
	probs := u.probs[:len(runnable)]
	for i := range probs {
		probs[i] = 1 / float64(len(runnable))
	}
	return runnable, probs
}

// PlannedLimit implements Probabilistic: up to the stage's remaining
// tasks.
//
//pcaps:hotpath
func (u *UniformPB) PlannedLimit(c *sim.Cluster, ref sim.StageRef) int {
	if n := ref.Stage.RemainingTasks() + ref.Stage.Running; n > 0 {
		return n
	}
	return 1
}

// Pick implements sim.Scheduler.
//
//pcaps:hotpath
func (u *UniformPB) Pick(c *sim.Cluster) sim.Decision {
	refs, probs := u.Distribution(c)
	if len(refs) == 0 {
		return sim.DeferDecision
	}
	if u.rng == nil {
		u.rng = rand.New(rand.NewSource(u.Seed))
	}
	v := sampleIndex(u.rng, probs)
	return sim.Decision{Ref: refs[v], Limit: u.PlannedLimit(c, refs[v])}
}
