package core

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// heapByInterface is the reorder buffer as it was: eventHeap's ordering
// behind heap.Interface, sifted by container/heap. The typed push and pop
// are held to it array slot for array slot, so spans that compare equal
// leave in the order they always did.
type heapByInterface []*trace.Span

func (h heapByInterface) Len() int           { return len(h) }
func (h heapByInterface) Less(i, j int) bool { return compareEvents(h[i], h[j]) < 0 }
func (h heapByInterface) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *heapByInterface) Push(x any)        { *h = append(*h, x.(*trace.Span)) }
func (h *heapByInterface) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var got eventHeap
	var want heapByInterface
	for step := 0; step < 20_000; step++ {
		if len(want) == 0 || rng.Intn(5) < 3 {
			// Few distinct keys, so ties — equal ids included — are the rule.
			begin := vclock.Time(rng.Intn(40))
			s := &trace.Span{ID: uint64(rng.Intn(8)), Level: trace.Level(rng.Intn(3)), Begin: begin, End: begin + vclock.Time(rng.Intn(4))}
			got.push(s)
			heap.Push(&want, s)
		} else if a, b := got.pop(), heap.Pop(&want).(*trace.Span); a != b {
			t.Fatalf("step %d: popped %+v, container/heap pops %+v", step, a, b)
		}
		if !slices.Equal(got, eventHeap(want)) {
			t.Fatalf("step %d: the heaps' arrays differ", step)
		}
	}
}
