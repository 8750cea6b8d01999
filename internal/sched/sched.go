// Package sched implements the scheduling policies of the paper's
// evaluation (§6.1): the FIFO behaviour of Spark standalone mode, the
// Kubernetes-default variant, the Weighted Fair heuristic, a Decima-like
// probabilistic scheduler (the ML-scheduler substitution documented in
// DESIGN.md), the adapted GreenHadoop baseline (Appendix A.1.1), and the
// carbon-aware wrappers CAP and PCAPS from internal/core.
//
// All policies are written against the simulator's view API: the slices
// returned by Cluster.Runnable and Cluster.ActiveJobs are cluster-owned,
// epoch-cached views that are only valid for the duration of the current
// Pick call. Policies therefore never retain them, and keep their own
// per-instance scratch buffers for derived state, so a Pick call
// allocates nothing on the steady path. A scheduler instance may be used
// by only one run at a time (the experiment engine builds one per cell).
package sched

import (
	"math"

	"pcaps/internal/sim"
)

// FIFO is the default Spark standalone scheduler: jobs in arrival order,
// stages within a job in readiness (ID) order, and no parallelism limit —
// a stage may absorb up to one executor per task, the over-assignment
// behaviour Appendix A.1.2 identifies as the source of FIFO's blocking.
type FIFO struct {
	// Label overrides the reported name ("FIFO" by default); the
	// prototype calls the same policy "default".
	Label string
}

// Name implements sim.Scheduler.
func (f *FIFO) Name() string {
	if f.Label != "" {
		return f.Label
	}
	return "FIFO"
}

// Pick implements sim.Scheduler: first runnable stage of the earliest
// arrived job.
//
//pcaps:hotpath
func (f *FIFO) Pick(c *sim.Cluster) sim.Decision {
	runnable := c.Runnable()
	if len(runnable) == 0 {
		return sim.DeferDecision
	}
	return sim.Decision{Ref: runnable[0]} // Limit 0 = up to NumTasks
}

// NewKubeDefault returns the prototype's baseline: FIFO stage selection
// with the per-job executor cap enforced by the cluster configuration
// (sim.Config.PerJobCap), matching the Spark-on-Kubernetes default of
// §6.3. The policy itself is identical to FIFO; the cap lives in the
// cluster, mirroring how Kubernetes enforces it outside Spark.
func NewKubeDefault() *FIFO { return &FIFO{Label: "default"} }

// weightedFairExponent shapes WeightedFair's job weight
// w_j = (remaining work)^weightedFairExponent.
const weightedFairExponent = -0.5

// wfJobInfo is WeightedFair's per-job scratch record.
type wfJobInfo struct {
	job    *sim.JobRun
	weight float64
	target float64
}

// WeightedFair assigns executors across jobs by workload-derived weights,
// mirroring the simulator heuristic of [48] ("a heuristic tuned for the
// simulator's test jobs"). Within a job it prefers the stage heading the
// heaviest downstream chain. The tuned weight is
// w_j = (remaining work)^-0.5: shares lean toward nearly finished jobs,
// which drives average JCT well below FIFO (the Table 3 ordering) while
// every job retains a positive share and cannot starve.
type WeightedFair struct {
	cp cpCache
	// infos is per-Pick scratch, reused across calls.
	infos []wfJobInfo
}

// Name implements sim.Scheduler.
func (w *WeightedFair) Name() string { return "WeightedFair" }

// Pick implements sim.Scheduler.
//
//pcaps:hotpath
func (w *WeightedFair) Pick(c *sim.Cluster) sim.Decision {
	runnable := c.Runnable()
	if len(runnable) == 0 {
		return sim.DeferDecision
	}
	// Compute each active job's weight and deficit (target − current).
	// The runnable view is job-major (arrival order, stages grouped), so
	// jobs are deduplicated at group boundaries without a set.
	w.infos = w.infos[:0]
	var totalWeight float64
	var lastJob *sim.JobRun
	for _, ref := range runnable {
		if ref.Job == lastJob {
			continue
		}
		lastJob = ref.Job
		wt := math.Pow(math.Max(ref.Job.RemainingWork(), 1), weightedFairExponent)
		w.infos = append(w.infos, wfJobInfo{job: ref.Job, weight: wt})
		totalWeight += wt
	}
	infos := w.infos
	var best *sim.JobRun
	bestDeficit := math.Inf(-1)
	bestTarget := 1.0
	for i := range infos {
		infos[i].target = float64(c.K()) * infos[i].weight / totalWeight
		deficit := infos[i].target - float64(infos[i].job.Executors)
		if deficit > bestDeficit {
			bestDeficit = deficit
			best = infos[i].job
			bestTarget = infos[i].target
		}
	}
	// When every job is at or above its fair share, the work still
	// proceeds (work-conserving) on the most underserved job.
	// Within the chosen job, pick the runnable stage with the heaviest
	// downstream critical-path work.
	cp := w.cp.get(best)
	var ref sim.StageRef
	bestCP := math.Inf(-1)
	for _, r := range runnable {
		if r.Job != best {
			continue
		}
		if v := cp[r.Stage.Stage.ID]; v > bestCP {
			bestCP = v
			ref = r
		}
	}
	if ref.Stage == nil {
		ref = runnable[0]
	}
	limit := int(math.Ceil(bestTarget))
	// The same diminishing-returns grant cap the Decima-like scheduler
	// uses: fair shares beyond a job's efficient parallelism only idle
	// executors at stage barriers.
	if cap := workDerivedCap(c, best.RemainingWork()); limit > cap {
		limit = cap
	}
	if limit < 1 {
		limit = 1
	}
	return sim.Decision{Ref: ref, Limit: limit}
}

// cpCache memoizes per-job critical-path-work vectors; the DAG never
// changes after submission, so the vector is computed once per job. Each
// scheduler instance owns its cache, keeping concurrent runs independent.
// Entries carry the JobRun's generation: the streaming engine recycles
// runtime records, so a remembered pointer may now host a different job
// — a moved generation invalidates the entry (and keeps the cache
// bounded by peak in-flight records rather than total jobs).
type cpCache struct {
	m map[*sim.JobRun]cpEntry
}

type cpEntry struct {
	gen int
	v   []float64
}

func (c *cpCache) get(j *sim.JobRun) []float64 {
	if e, ok := c.m[j]; ok && e.gen == j.Generation() {
		return e.v
	}
	if c.m == nil {
		c.m = map[*sim.JobRun]cpEntry{}
	}
	v := j.Job.CriticalPathWorkDown()
	c.m[j] = cpEntry{gen: j.Generation(), v: v}
	return v
}
