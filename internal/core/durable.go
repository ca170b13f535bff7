package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"xsp/internal/segio"
	"xsp/internal/trace"
)

// replayRun is how many recovered segment spans reach the observer per
// call: the most recovery holds decoded at once.
const replayRun = 4096

// SegmentStore is the durability hook a StreamCorrelator writes through
// when StreamOptions.Store is set. *segio.Store satisfies it; the
// indirection keeps core testable against in-memory fakes and keeps the
// dependency one-way (segio never imports core).
//
// All calls happen under the correlator's mutex, which is what makes the
// crash story exact: a WAL rotation can never interleave with a batch
// append, so every logged batch is either fully covered by the rotated
// snapshot or fully present as a record in the new generation.
type SegmentStore interface {
	// LogBatch durably appends one fed batch (and its ingest batch id, 0
	// when none) to the WAL before the correlator consumes it.
	LogBatch(spans []*trace.Span, batchID uint64) error
	// WriteSegment durably publishes one checkpoint segment — block is its
	// spans as one encoded span block, owned flags in the records — then
	// deletes the segment files it replaces.
	WriteSegment(block []byte, replaces []uint64) (uint64, error)
	// WriteGathered is WriteSegment for the n records walk hands out, in
	// that order, streamed from the blocks and files they lie in.
	WriteGathered(n int, walk func(yield func(blk *trace.SpanBlock, i int) bool) error, replaces []uint64) (uint64, error)
	// OpenSegment opens a segment file for reading in windows.
	OpenSegment(id uint64) (*segio.SegmentFile, error)
	// DropSegments deletes segment files a reopen emptied into the live
	// tail (after a Rotate covered their spans).
	DropSegments(ids []uint64) error
	// Rotate replaces the WAL with a fresh generation holding snap.
	Rotate(snap segio.Snapshot) error
	// Reset wipes all durable state, mirroring StreamCorrelator.Reset.
	Reset() error
}

// FeedLogged is Feed for durable ingest paths that need an acknowledgment
// barrier: the batch (tagged with the server's dedup batch id) is
// appended and fsynced to the WAL before the correlator consumes it, and
// a nil return means the batch survives any crash — the caller may ack.
// On a log error nothing is consumed and the error is returned (and
// latched: see DurabilityErr); once latched, later calls degrade to
// RAM-only Feed and return nil, so ingest stays available while
// /api/durability surfaces the failure.
func (sc *StreamCorrelator) FeedLogged(batchID uint64, spans ...*trace.Span) error {
	return sc.feedLogged(batchID, spans, false)
}

// FeedOwned is FeedLogged for a batch the correlator takes over, the slice
// and the spans in it: the caller keeps none of them, and each is a distinct
// span fed once. The slice goes back to the trace free list once the spans
// are placed (trace.RecycleBatch), and each span's slot once a fold has
// encoded it into the checkpoint (trace.RecycleSpans), for the next
// recycling decode to refill. A span fed any other way is only lent and
// never recycled: Feed, FeedLogged, recovery replay, the spans live when the
// first owned batch arrives. On a log error nothing is consumed, and the
// batch stays the caller's.
func (sc *StreamCorrelator) FeedOwned(batchID uint64, spans ...*trace.Span) error {
	if err := sc.feedLogged(batchID, spans, true); err != nil {
		return err
	}
	trace.RecycleBatch(spans)
	return nil
}

func (sc *StreamCorrelator) feedLogged(batchID uint64, spans []*trace.Span, owned bool) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err := sc.logBatch(spans, batchID); err != nil {
		return err
	}
	sc.feedLocked(spans, owned)
	return nil
}

// DurabilityErr returns the first store error the correlator hit, if
// any — a failed read of a segment file included. After it latches, the
// correlator keeps running RAM-only (same behavior as Store == nil) rather
// than failing feeds.
func (sc *StreamCorrelator) DurabilityErr() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.durErr
}

// logBatch appends one fed batch to the WAL before it is consumed, and
// counts its spans into walSpans. An error latches (the stream continues
// RAM-only) and is returned. Callers hold sc.mu.
func (sc *StreamCorrelator) logBatch(spans []*trace.Span, batchID uint64) error {
	if !sc.durable() {
		return nil
	}
	if err := sc.opts.Store.LogBatch(spans, batchID); err != nil {
		sc.durErr = err
		return err
	}
	sc.walSpans += len(spans)
	return nil
}

// latch keeps err as the stream's durability error unless one is latched
// already. Callers hold sc.mu.
func (sc *StreamCorrelator) latch(err error) {
	if sc.durErr == nil {
		sc.durErr = err
	}
}

// durable reports whether store writes are armed: there is a store, this
// is not RecoverStream's replay, and no store error has latched. Callers
// hold sc.mu.
func (sc *StreamCorrelator) durable() bool {
	return sc.opts.Store != nil && !sc.replaying && sc.durErr == nil
}

// persistHistory writes the segment files the ladder still owes (see
// history.persistLadder); an error latches. Callers hold sc.mu.
func (sc *StreamCorrelator) persistHistory() {
	if sc.durable() {
		sc.durErr = sc.hist.persistLadder(sc.opts.Store)
	}
}

// store is the store compaction writes survivors through: nil unless store
// writes are armed. Callers hold sc.mu.
func (sc *StreamCorrelator) store() SegmentStore {
	if sc.durable() {
		return sc.opts.Store
	}
	return nil
}

// walNeedsRotation is the fold-time rotation rule. A fold leaves its
// spans dead in the WAL — durable in a segment file now, still present in
// the snapshot or batch record that first carried them — and rewriting
// the live tail to shed them costs O(live), so the rewrite waits until the
// dead spans it sheds are at least as many as the live ones it copies:
// walSpans >= 2*live. That bounds the WAL at twice the live tail plus one
// batch and the rotation rewrite at one span per span fed, amortised. (A
// reopening repair does not ask: it rotates at once, its snapshot being
// what makes the spans it took out of segments durable again.) Callers
// hold sc.mu.
func (sc *StreamCorrelator) walNeedsRotation() bool {
	return sc.walSpans >= 2*sc.liveLen()
}

// rotateWAL trims the WAL: a fresh generation whose snapshot record
// covers the entire unfolded state (live tail, correlation table, release
// floor; the store adds the dedup-id window and its segment-id stamp).
// Segment files a reopen emptied are deleted here and only here — the
// rotation is what makes their spans durable elsewhere. Callers hold
// sc.mu.
func (sc *StreamCorrelator) rotateWAL() {
	if !sc.durable() {
		return
	}
	if sc.durErr = sc.opts.Store.Rotate(sc.snapshotLocked()); sc.durErr != nil {
		return
	}
	sc.walSpans = sc.liveLen()
	sc.durErr = sc.hist.dropStale(sc.opts.Store)
}

// snapshotLocked builds the WAL snapshot of everything not in a segment.
// The live tail is the live set, holder after holder (see liveRuns) — the
// released runs, open windows and pending execs among them, the reorder
// buffer, the unrepaired stragglers. Its order carries nothing: recovery
// replays it as one Feed, through the reorder buffer's total order, and
// re-derives every owned parent; only non-owned (tracer-assigned) links are
// carried as data. Callers hold sc.mu.
func (sc *StreamCorrelator) snapshotLocked() segio.Snapshot {
	live := slices.Concat(sc.liveRuns()...)
	owned := newOwnedBits(len(live))
	for i, s := range live {
		if sc.owns(s) {
			owned.set(i)
		}
	}
	snap := segio.Snapshot{Live: live, Owned: owned}
	sc.corr.Each(func(corr uint64, e corrEntry) {
		if e.parent == 0 {
			return // absent and zero-parent entries are indistinguishable to every reader
		}
		snap.Corr = append(snap.Corr, segio.CorrEntry{Corr: corr, Parent: e.parent, At: e.at})
	})
	slices.SortFunc(snap.Corr, func(a, b segio.CorrEntry) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Corr, b.Corr))
	})
	if f := sc.releaseFloor(); f != nil {
		snap.Floor = &segio.SpanKey{Begin: f.Begin, End: f.End, Level: f.Level, Kind: f.Kind, ID: f.ID}
	}
	return snap
}

// releaseFloor is the newest release point this correlator knows: its own
// lastReleased, or the floor recovered from a previous process if that
// compares later. Spans at or behind it are stragglers. Callers hold
// sc.mu.
func (sc *StreamCorrelator) releaseFloor() *trace.Span {
	f := sc.floor
	if sc.lastReleased != nil && (f == nil || compareEvents(sc.lastReleased, f) > 0) {
		f = sc.lastReleased
	}
	return f
}

// RecoverStream rebuilds a StreamCorrelator from what segio.Open
// recovered, attached to opts.Store for continued durability. Segments
// install directly as checkpoint segments; the WAL snapshot's live tail
// and the batch records after it replay through Feed in their original
// arrival order, with every correlator-derived parent stripped first so
// the resolver re-derives them — replay is just a resumed stream, which
// is what makes the recovered state provably equal to the uncrashed one.
// Span-id dedup across segments, snapshot, and batches (segments win)
// absorbs every overlap the store's write orderings can produce, deferred
// folds first among them: a fold whose WAL rotation had not come due left
// its spans in both places, its segment installs, and the WAL's copies
// drop out of replay — so recovery replays the live tail, not the
// history the WAL happened to still hold. On return the store has been
// rotated onto a fresh WAL covering the rebuilt state, so the recovery
// itself is crash-safe and appends are re-armed.
func RecoverStream(opts StreamOptions, rec *segio.Recovery) (*StreamCorrelator, error) {
	if opts.Store == nil {
		return nil, errors.New("core: RecoverStream requires StreamOptions.Store")
	}
	sc := NewStreamCorrelator(opts)

	// A segment file written after the WAL's snapshot record (the segment-id
	// stamp on the record dates it) whose spans the WAL also carries is a
	// deferred fold, and installs whole like any other segment. In a file
	// older than the snapshot, a span the WAL carries was moved back live by
	// a straggler repair before the snapshot was taken, and the WAL wins it:
	// its settled parent predates the repair, only replay gets it right. So
	// an older segment installs without those spans — all of them, and the
	// file is stale: the crash interrupted deleting it; some of them, and
	// the crash fell between the repair's rotation and the rewrite of the
	// segment's remainder, which the end of recovery now writes. (A snapshot
	// from before the stamp existed dates every segment as older, which is
	// the inference it was written under: replaying a covered fold
	// re-derives the very parents it froze.) The WAL's span ids are indexed
	// on first use: only a segment older than the snapshot asks.
	var walSeen map[uint64]bool

	seen := make(map[uint64]bool)
	var tip trace.Span // the folded span latest in sweep order, a compare key (ID 0: none yet)
	for k, seg := range rec.Segments {
		rec.Segments[k].File = nil // the history holds it now
		if !seg.SinceSnapshot && walSeen == nil {
			walSeen = walSpanIDs(rec)
		}
		covered := func(blk *trace.SpanBlock, i int) bool { return !seg.SinceSnapshot && walSeen[blk.ID(i)] }
		err := sc.hist.install(seg.File, covered, func(blk *trace.SpanBlock, i int) {
			seen[blk.ID(i)] = true
			sc.noteLevel(blk.Level(i))
			if begin := blk.Begin(i); begin > sc.maxBegin {
				// Every folded span was fed, so the crashed process's
				// watermark was at least here. After a deferred fold the spans
				// that advanced it are deduped out of the replay below, whose
				// drain would otherwise stop short of what had been released:
				// a span behind the recovered floor would then be repaired
				// against a region still missing its buffered container.
				sc.maxBegin = begin
			}
			// And its release floor was at least here, for the same reason: a
			// span arriving behind one the crashed process had released and
			// folded is a straggler, however little of the WAL is left to
			// release past it again. (Installed once the replay is through:
			// replayed spans are classified by what the replay has released,
			// folded spans a repair took back live included — see relive.)
			if key := (trace.Span{ID: blk.ID(i), Level: blk.Level(i), Kind: blk.Kind(i), Begin: blk.Begin(i), End: blk.End(i)}); tip.ID == 0 || compareEvents(&key, &tip) > 0 {
				tip = key
			}
			if corr, parent := blk.CorrelationID(i), blk.ParentID(i); blk.Kind(i) == trace.KindLaunch && corr != 0 && parent != 0 && blk.Owned(i) {
				// A folded launch's correlation entry always mirrors its
				// settled ParentID (a repair that moved it would have taken
				// it out of the segment, and a file still holding it lost
				// it to the WAL above), so the entry can be re-derived from
				// the segment. It must be: a deferred fold leaves the only
				// durable snapshot predating the fold, and without the entry
				// a live exec replaying later would degrade to containment.
				// Only for a launch the resolver parented: a tracer-parented
				// one never sets an entry in a live process either.
				sc.setCorr(corr, parent, 0)
			}
		})
		if err != nil {
			sc.Close()
			for _, left := range rec.Segments[k+1:] {
				left.File.Close()
			}
			return nil, err
		}
	}

	snap := rec.Snapshot
	if snap != nil {
		for _, c := range snap.Corr {
			if c.Parent == 0 {
				continue
			}
			if _, ok := sc.corr.Get(c.Corr); ok {
				// Segments are at least as new as the snapshot for any
				// launch they hold: keep the segment-derived entry.
				continue
			}
			sc.setCorr(c.Corr, c.Parent, c.At)
		}
	}

	// An observer attached for recovery sees the whole stream again:
	// recovered segments never pass through the release path, so their
	// spans are delivered here — read from the files a window at a time,
	// decoded for the occasion, and merged into one canonical order, which
	// keeps begins non-decreasing across segments — in runs of replayRun, so
	// what the replay holds decoded is one run, not the history; the WAL
	// replay below re-releases the rest through the ordinary drain path.
	if sc.observe != nil && sc.hist.spans > 0 {
		run := make([]*trace.Span, 0, replayRun)
		p := &pinned{segs: sc.hist.segs}
		err := trace.View{Walk: p.walk, Err: p.error}.Decode(func(s *trace.Span) {
			if run = append(run, s); len(run) == replayRun {
				sc.observe(run)
				run = run[:0]
			}
		})
		if err != nil {
			sc.Close()
			return nil, err
		}
		if len(run) > 0 {
			sc.observe(run)
		}
	}

	sc.replaying = true
	if snap != nil {
		sc.Feed(dedupStrip(snap.Live, snap.Owned, seen)...)
		if k := snap.Floor; k != nil {
			sc.installFloor(&trace.Span{ID: k.ID, Level: k.Level, Kind: k.Kind, Begin: k.Begin, End: k.End})
		}
	}
	for _, b := range rec.Batches {
		sc.Feed(dedupStrip(b.Spans, b.Owned, seen)...)
	}
	if tip.ID != 0 {
		sc.installFloor(&tip)
	}

	sc.mu.Lock()
	sc.replaying = false
	// Rotate onto a fresh WAL — which re-arms appends and covers whatever a
	// replay-time repair, or the coverage rule above, took out of a segment
	// — and only then persist the shape replay left the ladder in:
	// remainders, and compaction survivors with their inputs on their
	// replaced lists. Writing a remainder deletes the file holding the spans
	// it left out, so the snapshot carrying them has to exist first.
	sc.rotateWAL()
	sc.persistHistory()
	err := sc.durErr
	sc.mu.Unlock()
	if err != nil {
		sc.Close()
		return nil, err
	}
	return sc, nil
}

// OpenStream builds the stream of the tenant named key from opts (whose
// Store field is ignored): its correlator, its durable store and what
// recovery found in it. With open non-nil it opens the tenant's store and
// rebuilds the correlator from it with RecoverStream — opts.Observer,
// attached before the replay, sees recovered history too — so every
// tenant's checkpoint ladder and dedup window comes back independently
// after a crash; nil runs the tenant RAM-only. An open or recovery error
// does not fail the tenant: it degrades to a RAM-only correlator, store and
// rec nil, and the error is returned beside it — the same keep-ingesting
// posture as StreamCorrelator.DurabilityErr. rec is the report without the
// content (see releaseContent).
func OpenStream(key string, opts StreamOptions, open func() (*segio.Store, *segio.Recovery, error)) (sc *StreamCorrelator, store *segio.Store, rec *segio.Recovery, err error) {
	opts.Store = nil
	if open != nil {
		if store, rec, err = open(); err == nil {
			opts.Store = store
			if sc, err = RecoverStream(opts, rec); err == nil {
				return sc, store, releaseContent(rec), nil
			}
			store.Close() // it may hold the WAL a recovery rotated onto
		}
		err = fmt.Errorf("core: tenant %q durable store: %w", key, err)
		opts.Store = nil
	}
	return NewStreamCorrelator(opts), nil, nil, err
}

// releaseContent drops what a recovery carried in for RecoverStream — the
// snapshot's live tail, the batches' spans, the segments' files (the
// correlator holds them) — and keeps what is read of it
// afterwards: how many segments and batch records there were, the dedup
// window, the quarantined files, the repair counters. A tenant holds its
// Recovery for the life of the process; the content would be a second copy
// of the recovered stream held just as long.
func releaseContent(rec *segio.Recovery) *segio.Recovery {
	rec.Snapshot = nil
	for i := range rec.Segments {
		rec.Segments[i].File = nil
	}
	for i := range rec.Batches {
		rec.Batches[i].Spans, rec.Batches[i].Owned = nil, nil
	}
	return rec
}

// walSpanIDs indexes the id of every span the recovered WAL carries, in its
// snapshot or in a batch record after it.
func walSpanIDs(rec *segio.Recovery) map[uint64]bool {
	ids := make(map[uint64]bool)
	note := func(spans []*trace.Span) {
		for _, s := range spans {
			if s != nil {
				ids[s.ID] = true
			}
		}
	}
	if rec.Snapshot != nil {
		note(rec.Snapshot.Live)
	}
	for _, b := range rec.Batches {
		note(b.Spans)
	}
	return ids
}

// dedupStrip prepares recovered spans for replay: spans whose id a
// segment (or an earlier replayed record) already carries are dropped —
// segments win — and correlator-owned spans lose their derived ParentID
// so the resolver re-derives it.
func dedupStrip(spans []*trace.Span, owned ownedBits, seen map[uint64]bool) []*trace.Span {
	out := make([]*trace.Span, 0, len(spans))
	for i, s := range spans {
		if s == nil || seen[s.ID] {
			continue
		}
		seen[s.ID] = true
		if owned.has(i) {
			s.ParentID = 0
		}
		out = append(out, s)
	}
	return out
}

// installFloor adopts a recovered release floor — the crashed process's
// release point, from its snapshot or from the spans it had folded — unless
// the floor already stands later. It must be installed after the snapshot's
// own spans replayed: they released before the floor existed originally and
// must not classify as stragglers.
func (sc *StreamCorrelator) installFloor(f *trace.Span) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if cur := sc.releaseFloor(); cur == nil || compareEvents(f, cur) > 0 {
		sc.floor = f
	}
}
