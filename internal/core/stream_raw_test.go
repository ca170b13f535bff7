package core_test

import (
	"testing"

	"xsp/internal/core"
	"xsp/internal/trace"
)

// noteFed records each span's ParentID as it is about to be fed: what a raw
// store would keep, and what SnapshotRaw has to give back.
func noteFed(fed map[uint64]uint64, batches ...[]*trace.Span) {
	for _, b := range batches {
		for _, s := range b {
			fed[s.ID] = s.ParentID
		}
	}
}

// checkSnapshotRaw holds SnapshotRaw to its contract at the correlator's
// current state: the spans Trace holds, in Trace's order, every ParentID the
// one the span was fed with (fed, by span id) whatever the resolver has
// linked since — on header copies, so that neither taking the snapshot nor
// rewriting it shows through Trace.
func checkSnapshotRaw(t testing.TB, sc *core.StreamCorrelator, fed map[uint64]uint64) {
	t.Helper()
	live := sc.Trace().Spans
	linked := make([]uint64, len(live))
	for i, s := range live {
		linked[i] = s.ParentID
	}
	raw := sc.SnapshotRaw().Spans
	if len(raw) != len(live) {
		t.Fatalf("SnapshotRaw holds %d spans, Trace %d", len(raw), len(live))
	}
	for i, s := range raw {
		if s.ID != live[i].ID {
			t.Fatalf("SnapshotRaw position %d holds span %d, Trace span %d", i, s.ID, live[i].ID)
		}
		if s == live[i] {
			t.Fatalf("SnapshotRaw position %d (span %d) is the correlator's own header", i, s.ID)
		}
		if want, ok := fed[s.ID]; !ok || s.ParentID != want {
			t.Fatalf("SnapshotRaw span %d (%q %v [%d,%d)): parent %d, fed with %d (known %v), linked to %d",
				s.ID, s.Name, s.Level, s.Begin, s.End, s.ParentID, want, ok, linked[i])
		}
		s.ParentID, s.Begin, s.Level = ^uint64(0), -1, -1
	}
	after := sc.Trace().Spans
	if len(after) != len(live) {
		t.Fatalf("Trace holds %d spans after the snapshot was rewritten, %d before", len(after), len(live))
	}
	for i, s := range after {
		if s != live[i] || s.ParentID != linked[i] || s.Begin < 0 || s.Level < 0 {
			t.Fatalf("Trace position %d (span %d, parent %d) changed under SnapshotRaw: was span %d, parent %d",
				i, s.ID, s.ParentID, live[i].ID, linked[i])
		}
	}
}

// SnapshotRaw is a server tenant's raw view, so it is inspected the way the
// raw store would be: after every batch of the deep-straggler cycles — live
// tails holding tracer-parented and End < Begin spans, folds, ladder
// compactions, windowed reopens that shift the owned bits of the segments
// they leave behind — not only at the end.
func TestSnapshotRawIsTheFedStream(t *testing.T) {
	sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 32, Retain: 64, CorrRetain: 2_048, MaxWindowSpans: 256})
	gen := &reopenCycles{seed: 16}
	fed := make(map[uint64]uint64)
	for cycle := 1; cycle <= 4; cycle++ {
		punctual, held := gen.next()
		for _, b := range punctual {
			noteFed(fed, b)
			sc.Feed(cloneBatch(b)...)
			checkSnapshotRaw(t, sc, fed)
		}
		// Each cycle spreads tracer-parented spans over its whole length: they
		// were checked in the live tail batch by batch, and nearly all of them
		// sit in segments now.
		sc.Checkpoint()
		if st := sc.Stats(); st.Checkpointed < 9*st.Fed/10 {
			t.Fatalf("cycle %d: only %d of %d spans folded", cycle, st.Checkpointed, st.Fed)
		}
		checkSnapshotRaw(t, sc, fed)
		noteFed(fed, held)
		sc.Feed(cloneBatch(held)...)
		checkSnapshotRaw(t, sc, fed)
		sc.Flush()
		checkSnapshotRaw(t, sc, fed)
	}
	if st := sc.Stats(); st.Reopens == 0 || st.Compactions == 0 || st.Checkpointed == 0 {
		t.Fatalf("not adversarial enough: %+v", st)
	}
}
