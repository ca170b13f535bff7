package core_test

import (
	"bytes"
	"testing"
	"time"

	"xsp/internal/core"
	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
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
	checkViewFrames(t, sc, "")
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
		// By id, not by pointer: a checkpointed span is decoded anew by every read.
		if s.ID != live[i].ID || s.ParentID != linked[i] || s.Begin < 0 || s.Level < 0 {
			t.Fatalf("Trace position %d (span %d, parent %d) changed under SnapshotRaw: was span %d, parent %d",
				i, s.ID, s.ParentID, live[i].ID, linked[i])
		}
	}
}

// checkViewFrames is the byte-identity oracle of the streamed views: for
// the correlated and the raw view alike, the frame View writes record by
// record is the frame AppendBinaryFrameTenant encodes from the decoded
// snapshot — SnapshotTrace, SnapshotRaw — under tenant.
func checkViewFrames(t testing.TB, sc *core.StreamCorrelator, tenant string) {
	t.Helper()
	for _, raw := range []bool{false, true} {
		view := sc.View(raw)
		view.Tenant = tenant
		var got bytes.Buffer
		if err := view.WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		snap := sc.SnapshotTrace()
		if raw {
			snap = sc.SnapshotRaw()
		}
		if want := trace.AppendBinaryFrameTenant(nil, tenant, snap.Spans); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("raw %v: the streamed frame (%d bytes) differs from the decoded snapshot's (%d bytes, %d spans)", raw, got.Len(), len(want), len(snap.Spans))
		}
	}
}

// The streamed frames are the snapshots' at the edges too: an empty stream,
// a live tail with no history, a history behind a tail of a few spans, a
// tenant-named (version-2) frame, and views long enough to be written in
// many chunks. (A history with no tail at all is TestHistoryViewMergesTheSegments.)
func TestViewFramesAtTheEdges(t *testing.T) {
	sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 64})
	checkViewFrames(t, sc, "")
	checkViewFrames(t, sc, "acme")

	batches := workload.StreamingArrivals(workload.StreamingSpec{Trace: payloadTrace(4_000, 5), BatchSize: 500})
	feedAll(sc, batches[:len(batches)/2])
	if st := sc.Stats(); st.Checkpointed != 0 || st.Live == 0 {
		t.Fatalf("not a live tail alone: %+v", st)
	}
	checkViewFrames(t, sc, "")
	checkViewFrames(t, sc, "acme")

	sc.Flush()
	sc.Checkpoint()
	if st := sc.Stats(); st.Live > 10 || st.Checkpointed == 0 {
		t.Fatalf("not a history behind a few live spans: %+v", st)
	}
	checkViewFrames(t, sc, "")
	checkViewFrames(t, sc, "acme")

	feedAll(sc, batches[len(batches)/2:])
	if st := sc.Stats(); st.Live == 0 || st.Checkpointed == 0 || st.Fed < 3*(64<<10/trace.SpanRecordSize) {
		t.Fatalf("not a history, a live tail and several chunks: %+v", st)
	}
	checkViewFrames(t, sc, "acme")
}

// SnapshotRaw is a server tenant's raw view, so it is inspected the way the
// raw store would be: after every batch of the deep-straggler cycles — live
// tails holding tracer-parented and End < Begin spans, folds, ladder
// compactions, windowed reopens that shift the owned bits of the segments
// they leave behind — not only at the end.
func TestSnapshotRawIsTheFedStream(t *testing.T) {
	sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 32, Retain: 64, CorrRetain: 2_048}.WithMaxWindowSpans(256))
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

// A read pins the history under the correlator's mutex and decodes it after
// letting go, so a SnapshotTrace of a 200k-span history delays a concurrent
// FeedLogged by the pin — the segment list and the live tail's headers — and
// not by the decode: batches fed while the snapshot is being taken start and
// finish inside it, each in a small fraction of its time. (Were the mutex
// held for the decode, a feed begun after the snapshot took it could not
// finish before the snapshot did.)
func TestSnapshotDecodesOutsideTheMutex(t *testing.T) {
	batches := workload.StreamingArrivals(workload.StreamingSpec{Trace: payloadTrace(200_000, 31), BatchSize: 1_000})
	sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 64, Retain: 1_000})
	feedAll(sc, batches)
	sc.Flush()
	sc.Checkpoint()
	st := sc.Stats()
	if st.Checkpointed < 190_000 {
		t.Fatalf("only %d of %d spans folded", st.Checkpointed, st.Fed)
	}
	var tip vclock.Time
	for _, s := range batches[len(batches)-1] {
		tip = max(tip, s.End)
	}

	type interval struct{ from, to time.Time }
	snapshots := make(chan interval)
	stop := make(chan struct{})
	go func() {
		defer close(snapshots)
		for {
			from := time.Now()
			if got := len(sc.SnapshotTrace().Spans); got < st.Fed {
				t.Errorf("snapshot holds %d spans, %d were fed before it", got, st.Fed)
			}
			select {
			case snapshots <- interval{from, time.Now()}:
			case <-stop:
				return
			}
		}
	}()
	defer func() { // and wait for the snapshot under way
		close(stop)
		for range snapshots {
		}
	}()

	id := uint64(10_000_000)
	var feeds []interval
	for round := 0; round < 5; round++ {
		feeds = feeds[:0]
		var snap interval
		for done := false; !done; {
			id++
			tip++
			from := time.Now()
			if err := sc.FeedLogged(0, &trace.Span{ID: id, Level: trace.LevelKernel, Name: "k", Begin: tip, End: tip + 1}); err != nil {
				t.Fatal(err)
			}
			feeds = append(feeds, interval{from, time.Now()})
			select {
			case snap, done = <-snapshots:
			default:
			}
		}
		inside, slowest := 0, time.Duration(0)
		for _, f := range feeds {
			if f.from.After(snap.from) && f.to.Before(snap.to) {
				inside++
				slowest = max(slowest, f.to.Sub(f.from))
			}
		}
		took := snap.to.Sub(snap.from)
		t.Logf("snapshot of %d spans took %v: %d feeds began and ended inside it, the slowest in %v", st.Fed, took, inside, slowest)
		if inside >= 20 && slowest < took/2 {
			return
		}
	}
	t.Fatal("no snapshot in five let twenty feeds through, each in under half its time: the read holds the mutex while it decodes")
}
