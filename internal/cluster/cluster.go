// Package cluster models the paper's prototype deployment (§5.1, §6.3): a
// Spark-on-Kubernetes cluster of 51 VMs (one control plane, 50 workers
// hosting two executor pods each), a namespace ResourceQuota that CAP
// adjusts to throttle executor pods, per-job executor caps, pod startup
// latency, and the carbon-intensity daemon that polls an HTTP API and
// drives quota updates. Experiment execution reuses the discrete-event
// engine of internal/sim configured with prototype semantics.
package cluster

import (
	"fmt"
	"sync"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/sim"
)

// ExecutorShape is the resource footprint of one executor pod. The
// paper's configuration allocates 4 VCPUs and 7 GB per executor, two per
// 8-VCPU/16-GB worker (the remaining memory absorbs Spark's 10% overhead
// factor, §6.3).
type ExecutorShape struct {
	CPUMillis int // CPU request in millicores
	MemoryMB  int // memory request in MiB
}

// PaperExecutorShape is the §6.3 executor footprint.
var PaperExecutorShape = ExecutorShape{CPUMillis: 4000, MemoryMB: 7 * 1024}

// Config describes the prototype testbed.
type Config struct {
	// Workers is the number of worker VMs (50 in the paper).
	Workers int
	// ExecutorsPerWorker is pods per worker (2 in the paper).
	ExecutorsPerWorker int
	// PerJobCap bounds executors per Spark application (25, §6.3).
	PerJobCap int
	// PodStartDelay is the latency of scheduling + starting an executor
	// pod when an application acquires an executor, in seconds.
	PodStartDelay float64
	// IdleTimeout is Spark dynamic allocation's executorIdleTimeout in
	// seconds (60 by default): how long an idle executor pod lingers.
	IdleTimeout float64
	// Seed drives task jitter.
	Seed int64
}

// PaperConfig returns the §6.3 testbed: 50 workers × 2 executors = 100
// executors, 25-executor job cap, 60-second idle timeout.
func PaperConfig() Config {
	return Config{
		Workers:            50,
		ExecutorsPerWorker: 2,
		PerJobCap:          25,
		PodStartDelay:      3,
		IdleTimeout:        60,
	}
}

// Executors returns the total executor pod capacity.
func (c Config) Executors() int { return c.Workers * c.ExecutorsPerWorker }

// SimConfig translates the prototype description into engine settings:
// executor pods are held by applications until the idle timeout
// (dynamic-allocation lingering), pod startup is the cross-job move
// delay, and the per-job cap applies to all schedulers.
func (c Config) SimConfig(tr *carbon.Trace) sim.Config {
	return sim.Config{
		NumExecutors:  c.Executors(),
		Trace:         tr,
		MoveDelay:     c.PodStartDelay,
		PerJobCap:     c.PerJobCap,
		HoldExecutors: true,
		IdleTimeout:   c.IdleTimeout,
		Seed:          c.Seed,
	}
}

// Run executes a batch on the prototype cluster under the given
// scheduler.
func Run(cfg Config, tr *carbon.Trace, jobs []*dag.Job, s sim.Scheduler) (*sim.Result, error) {
	if cfg.Workers < 1 || cfg.ExecutorsPerWorker < 1 {
		return nil, fmt.Errorf("cluster: need at least one worker and executor, got %d×%d",
			cfg.Workers, cfg.ExecutorsPerWorker)
	}
	return sim.Run(cfg.SimConfig(tr), jobs, s)
}

// ResourceQuota models a Kubernetes namespace ResourceQuota object [2]:
// hard limits on CPU and memory that gate new pod admissions without
// preempting running pods — exactly the mechanism CAP's daemon adjusts
// (§5.1). It is safe for concurrent use (the daemon updates it while the
// scheduler reads it).
type ResourceQuota struct {
	mu    sync.Mutex
	shape ExecutorShape
	// hardCPU / hardMem are the quota limits; usedPods tracks admitted
	// executor pods.
	hardCPU, hardMem int
	usedPods         int
}

// NewResourceQuota creates a quota sized for maxExecutors pods of the
// given shape.
func NewResourceQuota(shape ExecutorShape, maxExecutors int) *ResourceQuota {
	q := &ResourceQuota{shape: shape}
	q.SetMaxExecutors(maxExecutors)
	return q
}

// SetMaxExecutors adjusts the hard CPU and memory limits to admit at most
// n executor pods, the translation CAP's daemon performs (§5.1: "our
// implementation adjusts CPU and memory quotas to correspond with a
// maximum number of executors").
func (q *ResourceQuota) SetMaxExecutors(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n < 0 {
		n = 0
	}
	q.hardCPU = n * q.shape.CPUMillis
	q.hardMem = n * q.shape.MemoryMB
}

// MaxExecutors returns the pod count the current hard limits admit.
func (q *ResourceQuota) MaxExecutors() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.maxLocked()
}

func (q *ResourceQuota) maxLocked() int {
	byCPU := q.hardCPU / q.shape.CPUMillis
	byMem := q.hardMem / q.shape.MemoryMB
	if byMem < byCPU {
		return byMem
	}
	return byCPU
}

// Used returns the number of admitted pods.
func (q *ResourceQuota) Used() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.usedPods
}

// Admit tries to admit n new executor pods; it returns how many fit
// under the hard limits (possibly 0) and records them as used. Existing
// pods are never evicted when the quota shrinks below usage.
func (q *ResourceQuota) Admit(n int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n <= 0 {
		return 0
	}
	head := q.maxLocked() - q.usedPods
	if head <= 0 {
		return 0
	}
	if n > head {
		n = head
	}
	q.usedPods += n
	return n
}

// Release returns n pods to the quota.
func (q *ResourceQuota) Release(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.usedPods -= n
	if q.usedPods < 0 {
		q.usedPods = 0
	}
}
