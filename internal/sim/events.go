package sim

type eventKind int

const (
	evTaskDone eventKind = iota
	evCarbon
	evHoldExpire
)

// event is one entry in the simulation's future-event list. Job arrivals
// are not events: the loop admits jobs from its own queue (Cluster.run).
type event struct {
	at   float64
	kind eventKind
	exec *executor // evTaskDone, evHoldExpire
	seq  int       // tiebreaker for deterministic ordering
}

// eventHeap is a min-heap on (at, seq). The sequence number makes
// simultaneous events process in insertion order, which keeps runs
// bit-for-bit reproducible. The heap is hand-rolled rather than built on
// container/heap: the standard interface passes elements as `any`, which
// boxes every pushed event onto the GC heap — one allocation per event on
// the simulator's hottest path. Sift operations on the concrete slice
// allocate nothing.
type eventHeap struct {
	items []event
	seq   int
}

func (h *eventHeap) Len() int { return len(h.items) }

func (h *eventHeap) less(i, j int) bool {
	if h.items[i].at != h.items[j].at {
		return h.items[i].at < h.items[j].at
	}
	return h.items[i].seq < h.items[j].seq
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *eventHeap) down(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		child := l
		if r := l + 1; r < n && h.less(r, l) {
			child = r
		}
		if !h.less(child, i) {
			return
		}
		h.items[i], h.items[child] = h.items[child], h.items[i]
		i = child
	}
}

//pcaps:hotpath
func (c *Cluster) push(ev event) {
	h := &c.events
	ev.seq = h.seq
	h.seq++
	//hot:alloc amortized event-heap growth; steady state reuses the popped capacity
	h.items = append(h.items, ev)
	h.up(len(h.items) - 1)
}

// heapShrinkMin is the smallest backing-array capacity the pop paths
// will release. Below it the memory at stake is a few KiB and shrinking
// would only cause reallocation churn; above it, a heap left at 1/4
// occupancy after a burst drains is returned to half its capacity so a
// long-running streaming simulation's footprint follows its load.
const heapShrinkMin = 1024

//pcaps:hotpath
func (c *Cluster) pop() event {
	h := &c.events
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items[n] = event{} // drop pointers so finished runs free their jobs
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
	if cp := cap(h.items); cp >= heapShrinkMin && n < cp/4 {
		//hot:alloc heap shrink after a burst drains; amortized by the 4:1 hysteresis
		items := make([]event, n, cp/2)
		copy(items, h.items)
		h.items = items
	}
	return top
}

// intHeap is an allocation-free min-heap of executor IDs. The simulator
// uses two: the shared idle pool and the reserved-but-idle set
// (HoldExecutors mode). Popping in ascending-ID order reproduces exactly
// the executor ordering of the historical O(K) scans, which is what keeps
// the incremental core byte-identical to the seed engine.
type intHeap []int

//pcaps:hotpath
func (h *intHeap) push(v int) {
	//hot:alloc amortized executor-heap growth; capacity reaches K and stays
	s := append(*h, v)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

//pcaps:hotpath
func (h *intHeap) pop() int {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && s[r] < s[l] {
			child = r
		}
		if s[child] >= s[i] {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	if cp := cap(s); cp >= heapShrinkMin && n < cp/4 {
		//hot:alloc heap shrink after a burst drains; amortized by the 4:1 hysteresis
		ns := make(intHeap, n, cp/2)
		copy(ns, s)
		s = ns
	}
	*h = s
	return top
}
