package core_test

import (
	"slices"
	"testing"

	"xsp/internal/core"
	"xsp/internal/segio"
	"xsp/internal/segio/faultfs"
	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

// reopenCycles generates deep-straggler cycles on one growing timeline:
// each cycle is a pipelined 3-stream trace, shifted past the previous one,
// that withholds a window of spans two fifths of the way in and delivers it
// after everything else — by which time the window's surroundings are
// folded. On top of the generated spans every cycle carries the shapes a
// windowed reopen could get wrong and a whole-ladder one cannot:
//
//   - tracer-parented spans (fed with the model span as ParentID, which is
//     not what containment would derive), one inside the withheld window and
//     a few spread over the rest of the cycle, all punctual: the first must
//     come out of the checkpoint parented, the others sit in the remainder of
//     a touched segment, at positions the extraction shifts;
//   - End < Begin spans inside the window, one punctual (folded, and selected
//     by the window or not, it must stay exactly once) and one withheld (a
//     straggler whose own window has hi < lo);
//   - a punctual launch inside the window, its exec punctual and well past
//     the window — folded, and outside every repair region — and a withheld
//     library-level span around the launch alone: its arrival moves the
//     launch's parent, and the exec must follow from inside the checkpoint.
type reopenCycles struct {
	seed             int64
	idBase, corrBase uint64
	tBase            vclock.Time
}

func (c *reopenCycles) next() (punctual [][]*trace.Span, held []*trace.Span) {
	const batchSize = 64
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace:           workload.SyntheticSpec{Spans: 3_000, Streams: 3, Seed: c.seed},
		BatchSize:       batchSize,
		ReorderSkew:     16,
		StragglerWindow: 300,
		StragglerPos:    0.4,
		Seed:            c.seed + 1,
	})
	c.seed += 2
	var arrivals []*trace.Span
	var model *trace.Span
	var maxID, maxCorr uint64
	var end vclock.Time
	for i, b := range batches {
		for _, s := range b {
			s.ID += c.idBase
			if s.CorrelationID != 0 {
				s.CorrelationID += c.corrBase
			}
			s.Begin += c.tBase
			s.End += c.tBase
			maxID, maxCorr, end = max(maxID, s.ID), max(maxCorr, s.CorrelationID), max(end, s.End)
			if s.Level == trace.LevelModel {
				model = s
			}
		}
		if i < len(batches)-1 {
			arrivals = append(arrivals, b...)
		}
	}
	held = batches[len(batches)-1]
	lo, hiEnd := held[0].Begin, held[0].End
	for _, s := range held {
		hiEnd = max(hiEnd, s.End)
	}
	mid := (lo + held[len(held)-1].Begin) / 2

	id := func() uint64 { maxID++; return maxID }
	maxCorr++
	extra := []*trace.Span{
		{ID: id(), Level: trace.LevelKernel, Name: "parented", Begin: mid, End: mid + 1, ParentID: model.ID},
		{ID: id(), Level: trace.LevelKernel, Name: "malformed", Begin: mid + 3, End: mid - 2},
		{ID: id(), Level: trace.LevelKernel, Kind: trace.KindLaunch, Name: "launch", Begin: mid + 7, End: mid + 9, CorrelationID: maxCorr},
		{ID: id(), Level: trace.LevelKernel, Kind: trace.KindExec, Name: "exec", Begin: hiEnd + 40, End: hiEnd + 43, CorrelationID: maxCorr},
	}
	for k := vclock.Time(1); k < 8; k++ {
		at := c.tBase + (end-c.tBase)*k/8
		extra = append(extra, &trace.Span{ID: id(), Level: trace.LevelKernel, Name: "parented", Begin: at, End: at + 1, ParentID: model.ID})
	}
	for _, x := range extra {
		// Punctual: each arrives where the stream's begins reach its own.
		at := slices.IndexFunc(arrivals, func(s *trace.Span) bool { return s.Begin >= x.Begin })
		if at < 0 {
			at = len(arrivals)
		}
		arrivals = slices.Insert(arrivals, at, x)
	}
	held = append(held,
		&trace.Span{ID: id(), Level: trace.LevelKernel, Name: "malformed", Begin: mid + 5, End: mid + 1},
		&trace.Span{ID: id(), Level: trace.LevelLibrary, Name: "library", Begin: mid + 6, End: mid + 10},
	)

	for at := 0; at < len(arrivals); at += batchSize {
		punctual = append(punctual, arrivals[at:min(at+batchSize, len(arrivals))])
	}
	c.idBase, c.corrBase, c.tBase = maxID, maxCorr, end+64
	return punctual, held
}

// HGTD-style stress cycles with an inspection after every one: the windowed
// reopen against the whole-ladder reopen it replaced (reopenAll, run on a
// second, RAM-mode correlator right before each deep-straggler batch) and
// against batch correlation of everything fed so far. The durable arm runs
// the windowed side on a store: its cuts land in filed segments that
// compactions merged from many folds, whose remainders the durable step
// writes behind the WAL rotation, and a recovery at the end must give back
// the stream as it stood.
func TestWindowedReopenMatchesFullReopen(t *testing.T) {
	t.Run("ram", func(t *testing.T) { windowedReopenCycles(t, false) })
	t.Run("durable", func(t *testing.T) { windowedReopenCycles(t, true) })
}

func windowedReopenCycles(t *testing.T, durable bool) {
	const cycles = 11
	opts := core.StreamOptions{ReorderWindow: 32, Retain: 64, CorrRetain: 2_048}.WithMaxWindowSpans(256)
	sc, oracle := core.NewStreamCorrelator(opts), core.NewStreamCorrelator(opts)
	var disk *faultfs.FS
	var log *storeLog
	if durable {
		disk = faultfs.New()
		st, rec, err := segio.Open(disk, segio.Options{})
		if err != nil {
			t.Fatal(err)
		}
		log = newStoreLog(st)
		dopts := opts
		dopts.Store = log
		if sc, err = core.RecoverStream(dopts, rec); err != nil {
			t.Fatal(err)
		}
	}
	defer sc.Close()
	gen := &reopenCycles{seed: 16}
	var fed [][]*trace.Span
	unparented := make(map[uint64]bool)
	fedParent := make(map[uint64]uint64)
	for cycle := 1; cycle <= cycles; cycle++ {
		var punctual [][]*trace.Span
		var held []*trace.Span
		slack := 1_000
		if cycle < cycles {
			punctual, held = gen.next()
		} else {
			// The last cycle is one straggler alone, its window reaching from
			// the previous cycle's withheld stretch to the tip: it takes the
			// latest-ending folded span — the one history.maxEnd tracks — and
			// most of a cycle's spans with it, and no fold follows to hide a
			// stale maximum.
			last := fed[len(fed)-1]
			held = []*trace.Span{{ID: 1 << 40, Level: trace.LevelKernel, Name: "long", Begin: last[0].Begin, End: gen.tBase}}
			slack = 3_500
		}
		for _, b := range append(punctual, held) {
			noteFed(fedParent, b)
			for _, s := range b {
				unparented[s.ID] = s.ParentID == 0
			}
		}
		fed = append(append(fed, punctual...), held)
		for _, b := range punctual {
			sc.Feed(cloneBatch(b)...)
			oracle.Feed(cloneBatch(b)...)
		}
		// Fold on both sides whatever the amortised cadence has not yet: the
		// stragglers are to arrive behind the checkpoint horizon.
		sc.Checkpoint()
		oracle.Checkpoint()
		before := sc.Stats()
		if before.Checkpointed < 9*before.Fed/10 {
			t.Fatalf("cycle %d: only %d of %d spans folded before the stragglers arrive: not a deep straggler", cycle, before.Checkpointed, before.Fed)
		}
		oracle.ReopenAll()
		sc.Feed(cloneBatch(held)...)
		oracle.Feed(cloneBatch(held)...)
		sc.Flush()
		oracle.Flush()

		st, ost := sc.Stats(), oracle.Stats()
		if st.Reopens <= before.Reopens || ost.Reopens != 0 {
			t.Fatalf("cycle %d: %d reopens after %d before, oracle %d: want the windowed path on one side only", cycle, st.Reopens, before.Reopens, ost.Reopens)
		}
		if st.Stragglers != ost.Stragglers || st.Repaired != ost.Repaired {
			t.Fatalf("cycle %d: %d stragglers repaired over %d spans, oracle %d over %d", cycle, st.Stragglers, st.Repaired, ost.Stragglers, ost.Repaired)
		}
		if st.Live+st.Checkpointed != len(unparented) || st.Fed != len(unparented) {
			t.Fatalf("cycle %d: live %d + checkpointed %d, fed %d of %d", cycle, st.Live, st.Checkpointed, st.Fed, len(unparented))
		}
		// The repair took the window's spans live, not the history: bounded
		// by the tail, the stragglers and what their windows overlap, all of
		// which one cycle's spans bound many times over.
		if st.Live > before.Live+len(held)+slack {
			t.Fatalf("cycle %d: %d spans live after the repair (%d before, %d stragglers) of %d fed", cycle, st.Live, before.Live, len(held), st.Fed)
		}
		if st.Checkpointed == 0 {
			t.Fatalf("cycle %d: the reopen left nothing folded", cycle)
		}

		got, ref, want := sc.Trace().Spans, oracle.Trace().Spans, batchParents(fed)
		if len(got) != len(ref) || len(got) != len(want) {
			t.Fatalf("cycle %d: trace of %d spans, oracle %d, fed %d", cycle, len(got), len(ref), len(want))
		}
		for i, s := range got {
			if i > 0 && trace.CanonicalLess(s, got[i-1]) {
				t.Fatalf("cycle %d: trace position %d (span %d) out of canonical order", cycle, i, s.ID)
			}
			if s.ID != ref[i].ID {
				t.Fatalf("cycle %d: trace position %d holds span %d, oracle span %d", cycle, i, s.ID, ref[i].ID)
			}
			if s.ParentID != ref[i].ParentID || s.ParentID != want[s.ID] {
				t.Fatalf("cycle %d: span %d (%q %v %v [%d,%d) corr %d): parent %d, oracle %d, batch %d",
					cycle, s.ID, s.Name, s.Level, s.Kind, s.Begin, s.End, s.CorrelationID, s.ParentID, ref[i].ParentID, want[s.ID])
			}
		}
		if n, maxEnd, wantN, wantMaxEnd := sc.CheckpointSummary(); n != wantN || maxEnd != wantMaxEnd {
			t.Fatalf("cycle %d: checkpoint tracked as %d spans ending by %d, the segments hold %d ending by %d", cycle, n, maxEnd, wantN, wantMaxEnd)
		}
		checkSnapshotRaw(t, sc, fedParent)
		owned, refOwned := sc.OwnedBits(), oracle.OwnedBits()
		for id, fedUnparented := range unparented {
			if owned[id] != fedUnparented || refOwned[id] != fedUnparented {
				t.Fatalf("cycle %d: span %d fed unparented=%v is owned=%v, in the oracle %v", cycle, id, fedUnparented, owned[id], refOwned[id])
			}
		}
	}
	if st := sc.Stats(); st.CorrEvicted == 0 || st.DegradedWindows == 0 {
		t.Fatalf("the cycles never evicted a correlation entry or degraded a window: %+v", st)
	}
	if !durable {
		return
	}
	if err := sc.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
	if log.remainders == 0 || log.deepest < 3 {
		t.Fatalf("%d remainders written, of files holding at most %d folds: no reopen cut a filed segment merged from many", log.remainders, log.deepest)
	}
	st, rec, err := segio.Open(disk.Recovered(), segio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Quarantined) != 0 {
		t.Fatalf("recovery quarantined %v", rec.Quarantined)
	}
	dopts := opts
	dopts.Store = st
	back, err := core.RecoverStream(dopts, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	back.Flush()
	got, want := back.Trace().Spans, sc.Trace().Spans
	if len(got) != len(want) {
		t.Fatalf("recovered %d spans, the stream held %d", len(got), len(want))
	}
	for i, s := range got {
		if s.ID != want[i].ID || s.ParentID != want[i].ParentID {
			t.Fatalf("recovered trace position %d: span %d parent %d, the stream's span %d parent %d", i, s.ID, s.ParentID, want[i].ID, want[i].ParentID)
		}
	}
}

// A moved launch's new parent must reach its folded exec even when no repair
// window reaches behind the checkpoint horizon: the exec ended before its
// launch began (the correlation id pairs them, not the clock), folded, and
// the launch — long, still live — is re-parented by a straggler whose
// window every folded span ends before. Fed as clones, compared with a batch
// correlation of the pristine spans; the durable arm checks the link again
// after a restart, where it must have reached the WAL.
func TestMovedLaunchReachesFoldedExecWithoutDeepWindow(t *testing.T) {
	const corr = 7
	model := &trace.Span{ID: 1, Level: trace.LevelModel, Name: "model", Begin: 0, End: 1_000_000}
	exec := &trace.Span{ID: 4, Level: trace.LevelKernel, Kind: trace.KindExec, Name: "exec", Begin: 150, End: 200, CorrelationID: corr}
	launch := &trace.Span{ID: 5, Level: trace.LevelKernel, Kind: trace.KindLaunch, Name: "launch", Begin: 300, End: 50_000, CorrelationID: corr}
	punctual := []*trace.Span{
		model,
		{ID: 2, Level: trace.LevelKernel, Name: "early", Begin: 10, End: 20},
		{ID: 3, Level: trace.LevelKernel, Name: "early", Begin: 30, End: 40},
		exec,
		launch,
		{ID: 6, Level: trace.LevelKernel, Name: "tip", Begin: 20_000, End: 20_010},
	}
	layer := &trace.Span{ID: 7, Level: trace.LevelLayer, Name: "layer", Begin: 290, End: 50_100}
	want := batchParents([][]*trace.Span{punctual, {layer}})
	if want[launch.ID] != layer.ID || want[exec.ID] != layer.ID {
		t.Fatalf("batch parents launch %d exec %d: the case needs both under the layer %d", want[launch.ID], want[exec.ID], layer.ID)
	}

	check := func(ctx string, sc *core.StreamCorrelator) {
		t.Helper()
		for _, s := range sc.Trace().Spans {
			if s.ParentID != want[s.ID] {
				t.Fatalf("%s: span %d (%s): stream parent %d, batch parent %d", ctx, s.ID, s.Name, s.ParentID, want[s.ID])
			}
		}
	}
	run := func(ctx string, sc *core.StreamCorrelator) {
		t.Helper()
		sc.Feed(cloneBatch(punctual)...)
		if folded := sc.Checkpoint(); folded != 3 {
			t.Fatalf("%s: folded %d spans, want the exec and the two early kernels", ctx, folded)
		}
		if _, maxEnd, _, _ := sc.CheckpointSummary(); maxEnd >= layer.Begin {
			t.Fatalf("%s: a folded span ends at %d, inside the straggler's window [%d, %d]: the repair would be deep", ctx, maxEnd, layer.Begin, layer.End)
		}
		sc.Feed(cloneBatch([]*trace.Span{layer})...)
		if st := sc.Stats(); st.Stragglers != 1 || st.Repaired == 0 {
			t.Fatalf("%s: the layer was not repaired as a straggler at feed time: %+v", ctx, st)
		}
		sc.Flush()
		check(ctx, sc)
	}

	opts := core.StreamOptions{Retain: 1_000}
	run("ram", core.NewStreamCorrelator(opts))

	fs := faultfs.New()
	st, rec, err := segio.Open(fs, segio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	sc, err := core.RecoverStream(opts, rec)
	if err != nil {
		t.Fatal(err)
	}
	run("durable", sc)
	if err := sc.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, rec, err = segio.Open(fs, segio.Options{}); err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	if sc, err = core.RecoverStream(opts, rec); err != nil {
		t.Fatal(err)
	}
	sc.Flush()
	check("durable, restarted", sc)
}

// A deep straggler keeps the live state bounded: its repair takes the spans
// its window overlaps out of the checkpoint, not the history, so the live
// count stays at tail + window + stragglers. Run both ways a repair happens:
// at feed time, and at Flush (the server's ?flush=1) when an open degraded
// window made the feed skip it — Flush does not fold, so there a
// whole-ladder reopen would leave the entire history live until the next
// feed.
func TestDeepStragglerKeepsLiveBounded(t *testing.T) {
	for _, atFlush := range []bool{false, true} {
		name := "feed"
		if atFlush {
			name = "flush"
		}
		t.Run(name, func(t *testing.T) {
			batches := workload.StreamingArrivals(workload.StreamingSpec{
				Trace: workload.SyntheticSpec{Spans: 40_000, Seed: 11}, BatchSize: 256,
				StragglerWindow: 256, StragglerPos: 0.25, Seed: 12,
			})
			punctual, held := batches[:len(batches)-1], batches[len(batches)-1]
			if atFlush {
				// Two layers crossing past the end of the trace, and a kernel
				// to release them: the window they degrade stays open.
				var end vclock.Time
				for _, b := range punctual {
					for _, s := range b {
						end = max(end, s.End)
					}
				}
				punctual = append(punctual[:len(punctual):len(punctual)], []*trace.Span{
					{ID: 1 << 40, Level: trace.LevelLayer, Name: "a", Begin: end + 10, End: end + 110},
					{ID: 1<<40 + 1, Level: trace.LevelLayer, Name: "b", Begin: end + 60, End: end + 160},
					{ID: 1<<40 + 2, Level: trace.LevelKernel, Name: "k", Begin: end + 90, End: end + 95},
				})
			}
			all := append(punctual[:len(punctual):len(punctual)], held)
			lo, hi := held[0].Begin, held[0].End
			for _, s := range held {
				lo, hi = min(lo, s.Begin), max(hi, s.End)
			}
			window := 0 // punctual spans overlapping the stragglers' combined window
			for _, b := range punctual {
				for _, s := range b {
					if s.Begin <= hi && s.End >= lo {
						window++
					}
				}
			}

			sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 16, Retain: 64})
			feedAll(sc, cloneBatches(punctual))
			sc.Checkpoint()
			before := sc.Stats()
			if before.Checkpointed < 36_000 || before.Live > 500 {
				t.Fatalf("history not folded: %+v", before)
			}
			sc.Feed(cloneBatch(held)...)
			if atFlush {
				if st := sc.Stats(); st.Repaired != 0 || st.DegradedWindows == 0 {
					t.Fatalf("the feed repaired in spite of an open degraded window: %+v", st)
				}
				sc.Flush()
			}
			st, load := sc.Stats(), sc.Load()
			if st.Reopens != 1 || st.Stragglers != len(held) {
				t.Fatalf("want one reopen for %d stragglers: %+v", len(held), st)
			}
			if bound := before.Live + window + len(held); load.LiveSpans > bound || st.Live != load.LiveSpans {
				t.Fatalf("%d spans live after the repair, want at most tail %d + window %d + stragglers %d = %d (history %d)",
					load.LiveSpans, before.Live, window, len(held), bound, st.Fed)
			}
			sc.Flush()
			assertStreamMatchesBatch(t, sc, all)
		})
	}
}
