package core

import (
	"math/rand"
	"slices"
	"testing"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// runRecorder keeps every run the correlator releases, in order.
type runRecorder struct{ spans []*trace.Span }

func (r *runRecorder) ObserveSpan(s *trace.Span)      { r.spans = append(r.spans, s) }
func (r *runRecorder) ObserveSpans(run []*trace.Span) { r.spans = append(r.spans, run...) }

// The reorder buffer is held to its reference: everything fed and not yet
// released, stably sorted by compareEvents after each batch, released by
// the prefix the watermark has passed. Few distinct keys make ties the
// rule, equal ids included — full ties, which only arrival order orders —
// so the check is pointer for pointer. Batches arrive shuffled, in order
// and reversed, and reach back up to a whole window, so the merge runs
// from the tail, from deep inside the buffer, and not at all.
func TestReorderBufferMatchesStableSort(t *testing.T) {
	const window = 12
	rng := rand.New(rand.NewSource(5))
	rec := &runRecorder{}
	sc := NewStreamCorrelator(StreamOptions{ReorderWindow: window, Observer: rec})
	var want, buffered []*trace.Span
	var maxBegin vclock.Time
	for step := 0; step < 3_000; step++ {
		// Begins after the last watermark: no arrival is a straggler.
		batch := make([]*trace.Span, rng.Intn(24))
		for i := range batch {
			begin := max(0, maxBegin-window+1) + vclock.Time(rng.Intn(window+3))
			batch[i] = &trace.Span{ID: uint64(rng.Intn(4)), Level: trace.Level(rng.Intn(2)), Begin: begin, End: begin + vclock.Time(rng.Intn(2))}
		}
		switch rng.Intn(3) {
		case 0:
			slices.SortStableFunc(batch, compareEvents)
		case 1:
			slices.SortStableFunc(batch, func(a, b *trace.Span) int { return compareEvents(b, a) })
		}
		for _, s := range batch {
			maxBegin = max(maxBegin, s.Begin)
		}
		sc.Feed(batch...)

		buffered = append(buffered, batch...)
		slices.SortStableFunc(buffered, compareEvents)
		n := 0
		for n < len(buffered) && buffered[n].Begin <= maxBegin-window {
			n++
		}
		want = append(want, buffered[:n]...)
		buffered = slices.Delete(buffered, 0, n)

		if !slices.Equal(sc.buffered(), buffered) {
			t.Fatalf("step %d: the buffer holds %d spans, not the reference's %d in its order", step, len(sc.buffered()), len(buffered))
		}
		if sc.bufAt > cap(sc.buf)/2 || slices.ContainsFunc(sc.buf[:sc.bufAt], func(s *trace.Span) bool { return s != nil }) {
			t.Fatalf("step %d: released prefix of %d in an array of %d, not cut back or not cleared", step, sc.bufAt, cap(sc.buf))
		}
	}
	sc.Flush()
	want = append(want, buffered...)
	if sc.Stats().Stragglers != 0 {
		t.Fatalf("%d stragglers: the reference assumes none", sc.Stats().Stragglers)
	}
	if !slices.Equal(rec.spans, want) {
		t.Fatalf("released %d spans, not the reference's %d in its order", len(rec.spans), len(want))
	}
	if len(sc.buf) != 0 {
		t.Fatalf("Flush left %d spans buffered", len(sc.buf))
	}
}
