package sim

import (
	"math/bits"
	"slices"
)

type eventKind int32

const (
	evTaskDone eventKind = iota
	evCarbon
	evHoldExpire
)

// event is one entry in the simulation's future-event list: the event
// heap for task completions and carbon boundaries, the expiry queue for
// hold expiries (pushExpiry). Job arrivals are not events: the loop
// admits jobs from its own queue (Cluster.run).
// An event holds no pointers — the executor is named by its ID — so it
// packs into 24 bytes, heap moves need no write barriers, and the
// collector never scans the heap.
type event struct {
	at   float64
	seq  int   // tiebreaker for deterministic ordering
	exec int32 // executor ID for evTaskDone and evHoldExpire
	kind eventKind
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

// before orders events by (at, seq).
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// siftUp fills the hole at i with ev, moving the hole up past every
// ancestor that ev precedes.
func (h *eventHeap) siftUp(i int, ev event) {
	items := h.items
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = ev
}

//pcaps:hotpath
func (c *Cluster) push(ev event) {
	h := &c.events
	ev.seq = h.seq
	h.seq++
	//hot:alloc amortized event-heap growth; steady state reuses the popped capacity
	h.items = append(h.items, ev)
	h.siftUp(len(h.items)-1, ev)
}

// heapShrinkMin is the smallest backing-array capacity pop will
// release. Below it the memory at stake is a few KiB and shrinking
// would only cause reallocation churn; above it, a heap left at 1/4
// occupancy after a burst drains is returned to half its capacity so a
// long-running streaming simulation's footprint follows its load.
const heapShrinkMin = 1024

// pop removes the earliest event. It sifts bottom-up: the hole left at
// the root walks down to a leaf along the smaller children, one
// comparison per level, and the last element is dropped into it and
// sifted up — usually only a level or two, since it came from the
// bottom. Keys (at, seq) are unique, so the pop order is the same as a
// classic top-down sift's.
//
//pcaps:hotpath
func (c *Cluster) pop() event {
	h := &c.events
	top := h.items[0]
	n := len(h.items) - 1
	last := h.items[n]
	h.items = h.items[:n]
	if n > 0 {
		items, i := h.items, 0
		for l := 1; l < n; l = 2*i + 1 {
			if r := l + 1; r < n && items[r].before(&items[l]) {
				l = r
			}
			items[i] = items[l]
			i = l
		}
		h.siftUp(i, last)
	}
	if cp := cap(h.items); cp >= heapShrinkMin && n < cp/4 {
		//hot:alloc heap shrink after a burst drains; amortized by the 4:1 hysteresis
		items := make([]event, n, cp/2)
		copy(items, h.items)
		h.items = items
	}
	return top
}

// pushExpiry appends a hold-expiry event to the expiry queue, whose live
// entries are expiries[expHead:]. holdExecutor pushes every expiry at
// clock + timeout, an offset fixed for the run from a clock that never
// moves back, so appending keeps the queue in (at, seq) order. The
// sequence number comes from the heap's counter: a tie with a heap event
// resolves in push order, as it did when expiries were heap events.
// When the backing array is full, the live entries move to its front, or
// to a new array twice the size when they fill half of it or more.
//
//pcaps:hotpath
func (c *Cluster) pushExpiry(ev event) {
	ev.seq = c.events.seq
	c.events.seq++
	n := len(c.expiries)
	if n == cap(c.expiries) {
		size := n
		if 2*(n-c.expHead) >= size {
			size = max(2*size, 16)
		}
		c.moveExpiries(size)
		n = len(c.expiries)
	}
	c.expiries = c.expiries[:n+1]
	c.expiries[n] = ev
}

// queueShrinkMin is the smallest expiry-queue capacity popExpiry will
// release. A hold-mode run in the paper's environments keeps a few
// hundred expiries pending, one per hold-dispatched task of the last
// 60 s, and drains them as it ends; shrinking below this size only made
// the next fill reallocate (DESIGN.md §2).
const queueShrinkMin = 8 * heapShrinkMin

// popExpiry removes the expiry queue's head. A large backing array whose
// live entries fill less than an eighth of it is halved: they then fill
// less than a quarter, so the queue must double before it grows again,
// the same 2:1 hysteresis as the heap's shrink.
//
//pcaps:hotpath
func (c *Cluster) popExpiry() event {
	ev := c.expiries[c.expHead]
	c.expHead++
	if cp := cap(c.expiries); cp >= queueShrinkMin && 8*(len(c.expiries)-c.expHead) < cp {
		c.moveExpiries(cp / 2)
	}
	return ev
}

// moveExpiries moves the expiry queue's live entries to the front of its
// backing array, or of a new one when size differs from its capacity.
//
//pcaps:hotpath
func (c *Cluster) moveExpiries(size int) {
	q, live := c.expiries, c.expiries[c.expHead:]
	if size != cap(q) {
		//hot:alloc expiry-queue growth and shrink; the 2:1 and 8:1 occupancy bounds amortize both
		q = make([]event, len(live), size)
	}
	c.expiries, c.expHead = q[:copy(q, live)], 0
}

// nextEvent returns the earliest pending event by (at, seq) — the
// expiry queue's head or the heap's top — and whether it is the
// queue's (popExpiry removes it) rather than the heap's (pop); nil when
// no event is pending. The pointer is valid until the next push or pop.
//
//pcaps:hotpath
func (c *Cluster) nextEvent() (ev *event, expiry bool) {
	if len(c.events.items) > 0 {
		ev = &c.events.items[0]
	}
	if c.expHead < len(c.expiries) {
		if head := &c.expiries[c.expHead]; ev == nil || head.before(ev) {
			return head, true
		}
	}
	return ev, false
}

// idSet is a set of executor IDs in [0, K), one bit per executor. The
// simulator keeps two: the shared idle pool and the reserved-idle set
// (HoldExecutors mode). popMin takes the lowest ID by trailing-zero
// count, so executors leave the pool in ascending-ID order — exactly the
// order of the historical O(K) scans, which is what keeps the
// incremental core byte-identical to the seed engine. lo is a hint: no
// word below it has a bit set. Memory is fixed at ceil(K/64) words.
type idSet struct {
	words []uint64
	n, lo int
}

func newIDSet(k int) idSet { return idSet{words: make([]uint64, (k+63)/64)} }

func (s *idSet) len() int { return s.n }

// add inserts an ID that is not in the set.
//
//pcaps:hotpath
func (s *idSet) add(id int) {
	s.words[id>>6] |= 1 << (id & 63)
	s.n++
	s.lo = min(s.lo, id>>6)
}

// remove deletes an ID that is in the set.
//
//pcaps:hotpath
func (s *idSet) remove(id int) {
	s.words[id>>6] &^= 1 << (id & 63)
	s.n--
}

// popMin removes and returns the lowest ID; the set must not be empty.
//
//pcaps:hotpath
func (s *idSet) popMin() int {
	for s.words[s.lo] == 0 {
		s.lo++
	}
	w := s.words[s.lo]
	s.words[s.lo] = w & (w - 1)
	s.n--
	return s.lo<<6 | bits.TrailingZeros64(w)
}

// peekN returns the n lowest IDs in ascending order without removing
// them; n <= len().
func (s *idSet) peekN(n int) []int {
	out := make([]int, 0, n)
	for wi := s.lo; len(out) < n; wi++ {
		for w := s.words[wi]; w != 0 && len(out) < n; w &= w - 1 {
			out = append(out, wi<<6|bits.TrailingZeros64(w))
		}
	}
	return out
}

func (s *idSet) clone() idSet {
	c := *s
	c.words = slices.Clone(s.words)
	return c
}
