package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvents is the differential test's reference future-event list: one
// container/heap min-heap on (at, seq) that knows nothing of event
// kinds.
type refEvents []event

func (h refEvents) Len() int { return len(h) }
func (h refEvents) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h refEvents) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEvents) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refEvents) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// TestEventOrderMatchesReferenceHeap drives the two-source event list —
// the heap and the expiry queue — with seeded interleavings of task and
// carbon pushes at any time from the clock on, hold-expiry pushes at
// clock + timeout, pops that move the clock to the popped event, and
// clones, and demands the pop order of one reference min-heap on
// (at, seq). Phases that grow the list alternate with phases that drain
// it, so the queue's backing array grows, slides and shrinks; times fall
// on a grid of the timeout as well as off it, so expiries tie with task
// events and with each other.
func TestEventOrderMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		timeout := float64(1 + rng.Intn(8))
		c := &Cluster{}
		var ref refEvents
		var last event
		seq, pops, ties, clones, shrinks, peak := 0, 0, 0, 0, 0, 0
		pushRef := func(ev event) {
			ev.seq = seq
			seq++
			heap.Push(&ref, ev)
		}
		pop := func() {
			first, expiry := c.nextEvent()
			if len(ref) == 0 {
				if first != nil {
					t.Fatalf("seed %d: nextEvent returned %+v from an empty list", seed, *first)
				}
				return
			}
			want := heap.Pop(&ref).(event)
			if first == nil {
				t.Fatalf("seed %d pop %d: nextEvent returned nil, want %+v", seed, pops, want)
			}
			peeked := *first
			var got event
			if expiry {
				got = c.popExpiry()
			} else {
				got = c.pop()
			}
			if got != want || peeked != want || expiry != (want.kind == evHoldExpire) {
				t.Fatalf("seed %d pop %d: peeked %+v, popped %+v from the queue=%v, want %+v", seed, pops, peeked, got, expiry, want)
			}
			if pops > 0 && got.at == last.at && (got.kind == evHoldExpire) != (last.kind == evHoldExpire) {
				ties++
			}
			pops++
			last = got
			c.clock = got.at
		}
		for step := 0; step < 120000; step++ {
			pTask, pExpiry := 3, 5 // in tenths; pops take the rest
			if step/30000%2 == 1 {
				pTask, pExpiry = 1, 1
			}
			before := cap(c.expiries)
			switch r := rng.Intn(10); {
			case r < pTask:
				at := c.clock + float64(rng.Intn(3))*timeout
				if rng.Intn(2) == 0 {
					at = c.clock + rng.Float64()*2*timeout
				}
				kind := evTaskDone
				if rng.Intn(8) == 0 {
					kind = evCarbon
				}
				ev := event{at: at, kind: kind, exec: int32(step)}
				c.push(ev)
				pushRef(ev)
			case r < pTask+pExpiry:
				ev := event{at: c.clock + timeout, kind: evHoldExpire, exec: int32(step)}
				c.pushExpiry(ev)
				pushRef(ev)
			default:
				pop()
			}
			if cp := cap(c.expiries); cp < before {
				shrinks++
			}
			peak = max(peak, cap(c.expiries))
			if rng.Intn(10000) == 0 {
				c, _, _ = c.clone()
				clones++
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if first, _ := c.nextEvent(); first != nil {
			t.Fatalf("seed %d: %+v left after the reference drained", seed, *first)
		}
		if ties == 0 || clones == 0 || shrinks == 0 || peak < 2*queueShrinkMin {
			t.Fatalf("seed %d: %d expiry/task ties, %d clones, %d shrinks, peak queue capacity %d; fixture too small", seed, ties, clones, shrinks, peak)
		}
	}
}
