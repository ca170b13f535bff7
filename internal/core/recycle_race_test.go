//go:build race

package core_test

import (
	"bytes"
	"testing"

	"xsp/internal/core"
	"xsp/internal/trace"
	"xsp/internal/workload"
)

// TestFoldedSpanIsPoisoned keeps what FeedOwned forbids keeping — a pointer
// to a span fed owned — past the fold that encodes the span, and reads the
// poison pattern the race build leaves in a recycled slot until a decode
// takes it again: a holder that outlives its fold reads nonsense, and the
// oracles that run under -race fail on it.
func TestFoldedSpanIsPoisoned(t *testing.T) {
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace:     workload.SyntheticSpec{Spans: 4_000, Seed: 46},
		BatchSize: 256, ReorderSkew: 48, Seed: 46,
	})
	// Every batch is decoded before the first feed, so no decode runs between
	// the fold and the look at the slot.
	decoded, total := make([][]*trace.Span, len(batches)), 0
	for i, b := range batches {
		total += len(b)
		tr, err := trace.DecodeBinary(bytes.NewReader(trace.AppendBinaryFrameTenant(nil, "", b)))
		if err != nil {
			t.Fatal(err)
		}
		decoded[i] = tr.Spans
	}
	// The first batch's earliest-ending span folds with the first fold.
	held := decoded[0][0]
	for _, s := range decoded[0] {
		if s.End < held.End {
			held = s
		}
	}
	id, name := held.ID, held.Name
	sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 48, Retain: 64})
	for _, b := range decoded {
		if err := sc.FeedOwned(0, b...); err != nil {
			t.Fatal(err)
		}
	}
	sc.Flush()
	sc.Checkpoint()
	if st := sc.Stats(); st.Checkpointed == 0 || st.Live+st.Checkpointed != total {
		t.Fatalf("want most of the %d spans folded: %+v", total, st)
	}
	if held.ID != 0xdeadbeefdeadbeef || held.Name != "<recycled span>" || held.Begin >= 0 {
		t.Fatalf("span %d (%q), folded, reads %+v: not the poison", id, name, *held)
	}
	// The history still holds the span itself: its record was encoded before
	// the slot went back.
	found := false
	for _, s := range sc.SnapshotTrace().Spans {
		found = found || (s.ID == id && s.Name == name)
	}
	if !found {
		t.Fatalf("span %d (%q) is gone from the history", id, name)
	}
}
