package core_test

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"xsp/internal/core"
	"xsp/internal/trace"
	"xsp/internal/workload"
)

// TestViewKeepsFoldedEntries holds a read to its own copy of the live tail's
// tags and metrics. A stream fed owned gives a span's Tags and Metrics arrays
// back with its slot when a fold encodes it (trace.RecycleSpans clears them,
// or poisons them under -race), and the next decode refills them with another
// batch's entries. A snapshot taken and a view pinned while the spans were
// live must still read the entries the spans were fed with after that fold
// and that decode: a view that shared the live spans' arrays (a shallow
// trace.CloneHeaders) reads zeros, poison or the new batch's values instead.
func TestViewKeepsFoldedEntries(t *testing.T) {
	var fed []*trace.Span
	for _, b := range workload.StreamingArrivals(workload.StreamingSpec{Trace: payloadTrace(2_000, 51), BatchSize: 500}) {
		fed = append(fed, b...)
	}
	want := make(map[uint64]*trace.Span, len(fed))
	entries := 0
	for _, s := range fed {
		want[s.ID] = s.Clone()
		entries += len(s.Tags) + len(s.Metrics)
	}
	// The next batch has the same shape, so its decode takes the pieces the
	// fold frees, and other values in every entry.
	next := make([]*trace.Span, len(fed))
	for i, s := range fed {
		c := s.Clone()
		for j := range c.Tags {
			c.Tags[j].Value += "'"
		}
		for j := range c.Metrics {
			c.Metrics[j].Value = -c.Metrics[j].Value - 1
		}
		next[i] = c
	}
	decode := func(spans []*trace.Span) []*trace.Span {
		tr, err := trace.DecodeBinary(bytes.NewReader(trace.AppendBinaryFrameTenant(nil, "", spans)))
		if err != nil {
			t.Fatal(err)
		}
		return tr.Spans
	}

	// The whole stream waits in the reorder buffer, its window as wide as the
	// stream, until a span that begins past the window releases it.
	first, last := fed[0].Begin, fed[0].End
	for _, s := range fed {
		first, last = min(first, s.Begin), max(last, s.End)
	}
	window := last.Sub(first) + 1
	sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: window, Retain: 1})
	defer sc.Close()
	if err := sc.FeedOwned(0, nil, decode(fed)...); err != nil {
		t.Fatal(err)
	}
	if st := sc.Stats(); st.Live != len(fed) || entries == 0 {
		t.Fatalf("%d of %d spans live, %d entries among them: want every span live, with entries", st.Live, len(fed), entries)
	}
	snap := sc.SnapshotTrace()
	view := sc.View(false)
	defer view.Close()

	past := &trace.Span{ID: 1 << 40, Level: trace.LevelModel, Name: "past", Begin: last.Add(2 * window), End: last.Add(3 * window)}
	if err := sc.FeedOwned(0, nil, decode([]*trace.Span{past})...); err != nil {
		t.Fatal(err)
	}
	sc.Flush()
	sc.Checkpoint()
	if st := sc.Stats(); st.Checkpointed < len(fed)/2 {
		t.Fatalf("only %d of %d spans folded", st.Checkpointed, len(fed))
	}
	refilled := decode(next)

	for name, got := range map[string]*trace.Trace{"snapshot": snap, "view": view.Trace()} {
		if len(got.Spans) != len(fed) {
			t.Fatalf("%s: %d spans, want the %d live when it was taken", name, len(got.Spans), len(fed))
		}
		for _, s := range got.Spans {
			w := want[s.ID]
			if !slices.Equal(s.Tags, w.Tags) || !slices.Equal(s.Metrics, w.Metrics) {
				t.Fatalf("%s: span %d reads tags %v, metrics %v after its fold; fed %v, %v", name, s.ID, s.Tags, s.Metrics, w.Tags, w.Metrics)
			}
		}
	}
	runtime.KeepAlive(refilled)
}
