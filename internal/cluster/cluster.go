// Package cluster models CAP's quota daemon in the paper's Kubernetes
// prototype (§5.1): the executor pod shape, the namespace ResourceQuota
// CAP adjusts to throttle executor pods, and the daemon that polls a
// carbon-intensity HTTP API and drives the quota updates. The
// prototype's engine configuration (§6.3) is scenario.PaperSimConfig.
package cluster

import "sync"

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
