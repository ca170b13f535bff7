package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"xsp/internal/segio"
	"xsp/internal/trace"
	"xsp/internal/vclock"
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
	// LogBatch durably appends one fed batch — block is its spans as one
	// encoded span block, no record owned — and its ingest batch id (0 when
	// none) to the WAL before the correlator consumes it. The store keeps
	// none of block.
	LogBatch(block []byte, batchID uint64) error
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
	return sc.feedLogged(batchID, nil, spans, false)
}

// FeedOwned is FeedLogged for a batch the correlator takes over, the slice
// and the spans in it: the caller keeps none of them, and each is a distinct
// span fed once. The slice goes back to the trace free list once the spans
// are placed (trace.RecycleBatch), and each span's slot, with its Tags and
// Metrics arrays, once a fold has encoded it into the checkpoint
// (trace.RecycleSpans), for the next recycling decode to refill. So neither
// a span nor its entries may be kept. A span fed any other way is only lent and
// never recycled: Feed, FeedLogged, recovery replay, the spans live when the
// first owned batch arrives. On a log error nothing is consumed, and the
// batch stays the caller's.
//
// block, when not nil, is the batch as the span block it arrived in — the
// very spans, in any order, no record owned — lent for this call alone: the
// WAL logs it as it is instead of encoding the spans again (see logBatch).
func (sc *StreamCorrelator) FeedOwned(batchID uint64, block []byte, spans ...*trace.Span) error {
	if err := sc.feedLogged(batchID, block, spans, true); err != nil {
		return err
	}
	trace.RecycleBatch(spans)
	return nil
}

func (sc *StreamCorrelator) feedLogged(batchID uint64, block []byte, spans []*trace.Span, owned bool) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err := sc.logBatch(spans, block, batchID); err != nil {
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

// logBatch appends one fed batch to the WAL before it is consumed — block,
// or with none the spans encoded once into the correlator's own buffer — and
// counts its spans into walSpans. An error latches (the stream continues
// RAM-only) and is returned. Callers hold sc.mu.
func (sc *StreamCorrelator) logBatch(spans []*trace.Span, block []byte, batchID uint64) error {
	if !sc.durable() {
		return nil
	}
	if block == nil {
		sc.logged = trace.AppendSpanBlock(sc.logged[:0], spans, nil)
		block = sc.logged
	}
	if err := sc.opts.Store.LogBatch(block, batchID); err != nil {
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

// durable reports whether store writes are armed: there is a store, and no
// store error has latched. Callers hold sc.mu.
func (sc *StreamCorrelator) durable() bool {
	return sc.opts.Store != nil && sc.durErr == nil
}

// commit is the stream's one durable step: it writes the segment files the
// ladder owes and, when rotate asks, rotates the WAL, in the one order that
// never leaves a span the disk holds nowhere:
//
//  1. every segment whose file only adds spans to disk — a fresh fold, a
//     resident merge, a compaction survivor — is written first: until it
//     is, the WAL records that carried its spans are their one copy;
//  2. then the WAL rotates onto a fresh generation whose snapshot covers
//     everything unfolded — the live tail, spans a reopen took back out of
//     segments among it, the correlation table, the release floor — and the
//     files reopens emptied are deleted;
//  3. only then are the remainders reopens left written, each deleting the
//     file that held the spans it leaves out.
//
// With no store armed (none attached yet, as through recovery's replay, or
// a latched error) it writes nothing, and a compaction survivor dissolves
// back into its inputs. An error latches. Callers hold sc.mu.
func (sc *StreamCorrelator) commit(rotate bool) {
	if sc.durable() {
		store := sc.opts.Store
		sc.durErr = sc.hist.write(store, func(seg *ckptSegment) bool { return !seg.trims() })
		if sc.durErr == nil && rotate {
			sc.durErr = store.Rotate(sc.snapshotLocked())
			if sc.durErr == nil {
				sc.walSpans = sc.liveLen()
				sc.durErr = sc.hist.dropStale(store)
			}
			if sc.durErr == nil {
				sc.durErr = sc.hist.write(store, (*ckptSegment).trims)
			}
		}
	}
	sc.hist.dissolve()
	sc.hist.keepLent()
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
	if f := sc.floor; f != nil {
		snap.Floor = &segio.SpanKey{Begin: f.Begin, End: f.End, Level: f.Level, Kind: f.Kind, ID: f.ID}
	}
	return snap
}

// raiseFloor moves the release floor up to s — a span the drain released, a
// folded span relive made released again, or a release point recovered from
// a previous process — unless it already stands later: the floor never moves
// back. Callers hold sc.mu.
func (sc *StreamCorrelator) raiseFloor(s *trace.Span) {
	if sc.floor == nil || compareEvents(s, sc.floor) > 0 {
		sc.floor = eventKey(s)
	}
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
// history the WAL happened to still hold. The replay runs with no store
// attached; then the store is, and what the replay folded is written and
// the store rotated onto a fresh WAL covering the rebuilt state, so the
// recovery itself is crash-safe and appends are re-armed.
func RecoverStream(opts StreamOptions, rec *segio.Recovery) (*StreamCorrelator, error) {
	store := opts.Store
	if store == nil {
		return nil, errors.New("core: RecoverStream requires StreamOptions.Store")
	}
	opts.Store = nil
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
	// re-derives the very parents it froze.)
	//
	// One set dedups it all: the spans the WAL carries, those still to
	// replay, counted by id and begin — a batch may carry one id twice, and
	// the live stream keeps every copy. A segment record kept spends one copy
	// of its key (segments win), and a replayed span one of its own, so the
	// replay keeps as many copies of a span as the stream did. An older
	// segment tests its records against the set as the WAL left it: segments
	// come in ascending id order, every older file before every newer one,
	// and an older file keeps, so spends, only keys the set lacks.
	replay := walReplay(rec)
	var tip trace.Span // the folded span latest in sweep order, a compare key (ID 0: none yet)
	for k, seg := range rec.Segments {
		rec.Segments[k].File = nil // the history holds it now
		covered := func(blk *trace.SpanBlock, i int) bool {
			return !seg.SinceSnapshot && replay[spanKey{blk.ID(i), blk.Begin(i)}] > 0
		}
		err := sc.hist.install(seg.File, covered, func(blk *trace.SpanBlock, i int) {
			replay.spend(spanKey{blk.ID(i), blk.Begin(i)})
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

	// A recovered release floor is raised to once the spans before it have
	// replayed: the snapshot's released before the floor existed originally,
	// and must not classify as stragglers.
	if snap != nil {
		sc.Feed(dedupStrip(snap.Live, snap.Owned, replay)...)
		if k := snap.Floor; k != nil {
			sc.mu.Lock()
			sc.raiseFloor(&trace.Span{ID: k.ID, Level: k.Level, Kind: k.Kind, Begin: k.Begin, End: k.End})
			sc.mu.Unlock()
		}
	}
	for _, b := range rec.Batches {
		sc.Feed(dedupStrip(b.Spans, b.Owned, replay)...)
	}

	sc.mu.Lock()
	if tip.ID != 0 {
		sc.raiseFloor(&tip)
	}
	// Attach the store, write what the replay folded, rotate onto a fresh
	// WAL — which re-arms appends and covers whatever a replay-time repair,
	// or the coverage rule above, took out of a segment — and write the
	// remainders that left.
	sc.opts.Store = store
	sc.commit(true)
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
// rec nil, with the error latched — the one DurabilityErr a store error met
// later latches too, and the same keep-ingesting posture. rec is the report
// without the content (see releaseContent).
func OpenStream(key string, opts StreamOptions, open func() (*segio.Store, *segio.Recovery, error)) (*StreamCorrelator, *segio.Store, *segio.Recovery) {
	opts.Store = nil
	if open == nil {
		return NewStreamCorrelator(opts), nil, nil
	}
	store, rec, err := open()
	if err == nil {
		opts.Store = store
		var sc *StreamCorrelator
		if sc, err = RecoverStream(opts, rec); err == nil {
			return sc, store, releaseContent(rec)
		}
		opts.Store = nil
		store.Close() // it may hold the WAL a recovery rotated onto
	}
	sc := NewStreamCorrelator(opts)
	sc.durErr = fmt.Errorf("core: tenant %q durable store: %w", key, err)
	return sc, nil, nil
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

// spanKey is what recovery's replay dedups a span by: its id and begin.
type spanKey struct {
	id    uint64
	begin vclock.Time
}

// replaySet counts the copies of each span still to replay.
type replaySet map[spanKey]int

// spend uses up one copy of k, if the set holds one.
func (r replaySet) spend(k spanKey) {
	if n := r[k]; n > 1 {
		r[k] = n - 1
	} else {
		delete(r, k)
	}
}

// walReplay counts the copies of every span the recovered WAL carries, in
// its snapshot or in a batch record after it: the replay's dedup set.
func walReplay(rec *segio.Recovery) replaySet {
	ids := make(replaySet)
	note := func(spans []*trace.Span) {
		for _, s := range spans {
			if s != nil {
				ids[spanKey{s.ID, s.Begin}]++
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

// dedupStrip prepares recovered spans for replay: a span with no copy left
// in replay — a segment carries it, or earlier replayed records spent its
// copies — is dropped, and the rest spend one; correlator-owned spans lose
// their derived ParentID so the resolver re-derives it.
func dedupStrip(spans []*trace.Span, owned ownedBits, replay replaySet) []*trace.Span {
	out := make([]*trace.Span, 0, len(spans))
	for i, s := range spans {
		if s == nil || replay[spanKey{s.ID, s.Begin}] == 0 {
			continue
		}
		replay.spend(spanKey{s.ID, s.Begin})
		if owned.has(i) {
			s.ParentID = 0
		}
		out = append(out, s)
	}
	return out
}
