package core

import (
	"math"
	"slices"
	"sort"
	"sync"

	"xsp/internal/interval"
	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// StreamOptions configures a StreamCorrelator.
type StreamOptions struct {
	// ReorderWindow bounds how far behind the stream's watermark (the
	// maximum Begin fed so far) a span may arrive and still be placed in
	// sweep order: spans wait in a reorder buffer until the watermark has
	// advanced ReorderWindow past their begin. Size it to the maximum
	// cross-shard arrival skew — for publish-order feeds, the longest span
	// whose children are published before it (a layer's duration). Spans
	// arriving later than that are stragglers: they are held aside and
	// finalized by Flush through a bounded repair region — only spans
	// overlapping the stragglers' window are re-correlated, not the whole
	// accumulated trace. Zero (the default) buffers nothing: every span
	// resolves the moment it arrives, and any out-of-order arrival is a
	// straggler.
	ReorderWindow vclock.Duration

	Isolated bool // see benchapi.go

	// Retain bounds the live, repairable state of a long-running stream:
	// what the correlator holds outside its checkpoint — the reorder buffer,
	// the unrepaired stragglers and the per-level released runs, each live
	// span in exactly one of the three. When nonzero, Feed periodically
	// folds finalized spans out of the released runs — those the
	// sweep has passed by more than ReorderWindow+Retain of virtual time,
	// with no open degraded window, pending execution span, or unrepaired
	// straggler reaching back to them — into an immutable checkpoint
	// segment that every read (View) merges with the live tail, so
	// the resolver's live state covers a bounded stretch of recent history
	// instead of every span ever fed. Stragglers whose repair window
	// reaches behind the checkpoint horizon reopen it (exact, counted in
	// Stats.Reopens): the folded spans the window overlaps go back live, at
	// the cost of one pass over the checkpoint's span headers and a copy of
	// the segments holding them — the history stays folded. Size Retain to
	// the stragglers you expect to repair without that pass. Between
	// automatic folds the live tail may exceed this horizon by up to an
	// eighth of itself (see autoFoldEvery). Zero (the default) keeps every
	// span live; Checkpoint folds on demand either way.
	Retain vclock.Duration

	// CorrRetain bounds the correlation-id state of a long-running
	// stream. When nonzero, a resolved launch's correlation-id entry is
	// evicted once the watermark has passed it by more than
	// ReorderWindow+CorrRetain of virtual time, and an execution span
	// still pending on an unresolved launch that far behind the watermark
	// is finalized with its containment fallback (its launch, were it
	// still coming, would itself be beyond the retention horizon) — so
	// neither table grows with total launches, and the fold horizon no
	// longer stalls on device-only records. Size it to the device queue
	// depth: an execution span begins within roughly the queue depth of
	// its launch, so a horizon comfortably above it changes nothing in
	// practice. The trade is documented and deliberate: an exec arriving
	// later than the horizon resolves by containment, not by correlation
	// id, which may differ from the batch assignment for launches whose
	// parent the containment walk cannot see — a launch arriving that late
	// as a straggler still repairs exactly, because the repair path finds
	// the launch's execs in the released runs, not through the evicted entry. A
	// straggler repair overlapping an exec whose entry was already
	// evicted keeps the exec's settled link rather than re-deriving it
	// (the launch, outside the repair region, did not move); the
	// corollary is that a device-only exec finalized at the horizon
	// keeps its recorded containment even if a straggler would have been
	// a tighter container. Zero (the default) retains every entry
	// forever, preserving exact batch equality for arbitrarily late
	// arrivals.
	CorrRetain vclock.Duration

	// Observer, when non-nil, receives every accepted span exactly once
	// as the correlator finishes placing it: at release from the reorder
	// buffer (in sweep order, so begins never decrease), at straggler
	// splice during repair, and — through RecoverStream — at recovered
	// checkpoint-segment install plus WAL replay, so an observer attached
	// before recovery rebuilds the same state the crashed process's
	// observer held. An observer that also offers
	// ObserveSpans(run []*trace.Span) is handed a run at a time instead —
	// what one drain released, what one repair spliced, the recovered
	// segments merged — the same spans in the same order, one call (for
	// analysis.Online, one lock) per run; the slice is the correlator's
	// and must not be kept. Calls happen under the correlator's mutex: the
	// observer must be fast and must never call back into the correlator.
	// Nothing is promised about ParentID at delivery: a span may hold the
	// parent the sweep gave it or still wait for one (an open degraded
	// window, an exec pending its launch) — in a run, later spans of the
	// run have been resolved too by then — and windows, repairs and reopens
	// may revise it afterwards. analysis.Online, which reads no ParentID,
	// is the intended consumer.
	Observer StreamObserver

	// Store, when non-nil, makes the correlator durable: every Feed batch
	// is appended to the store's WAL before it is consumed, checkpoint
	// folds and compactions write immutable segment files, and a fold
	// rotates the WAL onto a snapshot of the unfolded state once the WAL
	// holds as many folded spans as live ones (so the WAL stays within
	// twice the live tail plus one batch, and a fold costs what it folds,
	// not what is live). One step orders every write: files that only add
	// spans to disk, then the rotation, then a reopen's remainders, which
	// delete spans the rotated snapshot carries — so a crash at any point,
	// a recovery's included, recovers exactly through RecoverStream. All store
	// calls happen under the correlator's mutex (rotation can never race
	// an append); a store error latches (DurabilityErr) and the stream
	// degrades to RAM-only rather than failing feeds. Durable ingest
	// paths that must not acknowledge before the WAL fsync use FeedLogged
	// instead of Feed.
	Store SegmentStore

	// windowSpans replaces maxWindowSpans as the degraded-window bound when
	// nonzero; negative disables it. Only tests set it, through a hook in
	// export_test.go, tiny to force chaining.
	windowSpans int
}

// maxWindowSpans bounds how many spans a degraded window may accumulate
// before it is closed where it stands and a successor window chained in its
// place (Stats.WindowsChained counts the forced closes). Under sustained
// pipelined overlap a window would otherwise never close: every crossing
// span extends it, its candidate set grows with the stream, and — because
// the fold horizon cannot pass an open window — checkpointing stalls at the
// window's start until a Flush. Closing at a size bound is exact: every
// container of a deferred span has been released (containers begin no later
// than the spans they contain) and every span still active at the close is
// re-seeded into the successor window from the ancestor stacks, so chained
// windows resolve the same parents one unbounded window would.
const maxWindowSpans = 4096

// StreamObserver consumes accepted spans as a StreamCorrelator finishes
// placing them — the feed point for incremental analyses that never need
// the merged trace back. See StreamOptions.Observer for the delivery
// contract.
type StreamObserver interface {
	ObserveSpan(s *trace.Span)
}

// observerRuns returns how a run of accepted spans reaches obs: as one
// ObserveSpans call when obs offers that, span by span otherwise; nil when
// there is no observer. Resolved once, at construction — every delivery
// (drain, repair, recovery) goes through the result.
func observerRuns(obs StreamObserver) func(run []*trace.Span) {
	switch o := obs.(type) {
	case nil:
		return nil
	case interface{ ObserveSpans(run []*trace.Span) }:
		return o.ObserveSpans
	default:
		return func(run []*trace.Span) {
			for _, s := range run {
				o.ObserveSpan(s)
			}
		}
	}
}

// autoFoldEvery is the least number of releases Feed lets pass between
// automatic checkpoint folds when StreamOptions.Retain is set. A fold is an
// O(live) pass and, durable, a segment file, so past 8*autoFoldEvery live
// spans Feed waits for an eighth of the live tail instead: at most 8 spans
// visited per span released at any tail, every file at least an eighth of
// it, and a tail at most a seventh over its horizon (L = T + L/8). Both
// terms scale with it (the second is an eighth at 1 024), so a test that
// lowers it folds short streams into deep ladders.
var autoFoldEvery = 1024

// StreamCorrelator is the parent reconstruction: it consumes spans in
// arrival order — via Feed, or as a trace.Collector tap through Publish —
// and resolves parents as the stream advances instead of re-running a batch
// correlation per snapshot. A profiled trace is one batch fed and flushed
// (correlate).
//
//   - Launch and synchronous spans resolve the moment they arrive, against
//     incrementally maintained per-level active-ancestor stacks
//     (levelStacks).
//   - Execution spans wait in a pending table keyed by correlation id and
//     resolve the moment their launch does; device-only records (no launch
//     ever arrives) fall back to containment at Flush, like the batch
//     second pass.
//   - Pipelined overlap degrades only the window it occurs in: the
//     overlapping stretch of the stream is deferred and resolved through
//     per-level interval trees built over just that window's spans (plus
//     the ancestors active at its open), while the rest of the stream
//     stays on the stack fast path.
//   - Arrival reordering within StreamOptions.ReorderWindow is absorbed by
//     a watermark-keyed reorder buffer; later stragglers are finalized by
//     Flush through a repair region — only the spans overlapping the
//     stragglers' window re-correlate, against per-level interval trees
//     over exactly those spans — so the end state is the batch result at a
//     cost bounded by the stragglers' overlap, not the stream's length.
//   - With StreamOptions.Retain set, finalized history folds into
//     immutable checkpoint segments (see Checkpoint), keeping the live
//     resolver state bounded on long-running servers.
//
// A fed span is held once. Live, it sits in the reorder buffer, among the
// unrepaired stragglers, or — from its release until a fold — in its level's
// released run, the index every repair, fold, snapshot and read works from;
// there is no arrival list beside them and no second table of execution
// spans. Folded, it sits in one checkpoint segment.
//
// After Flush, parent assignments are identical to Correlate on the
// same spans in canonical order. Before Flush they are provisional: spans
// still buffered, deferred in an open window, or pending a launch are not
// yet linked, and once a straggler has arrived (Stats().Stragglers > 0)
// already-released spans may even hold a link the straggler's presence
// would change — only the Flush repair settles them. All methods are safe
// for concurrent use; Feed and Flush serialize on one mutex, so tap the
// correlator from the ingestion fan-in point, not from every publisher.
type StreamCorrelator struct {
	mu   sync.Mutex
	opts StreamOptions

	// treePool recycles interval-tree nodes across degraded windows and
	// straggler repairs: a sustained-overlap stream closes thousands of
	// windows, and per-close tree allocation used to dominate the hot
	// path (~0.5M node allocs per 100k spans). Guarded by mu like every
	// window structure.
	treePool interval.Pool

	observe func(run []*trace.Span) // opts.Observer's delivery (see observerRuns); nil without one
	merging []*trace.Span           // a batch merging into the reorder buffer; empty between feeds
	logged  []byte                  // a batch fed with no block of its own, encoded for the WAL (see logBatch)

	durErr error // first store failure, or the store's open or recovery failure; durability is off once set

	streamState
}

// streamState is what a StreamCorrelator knows about the spans it was fed —
// everything Reset returns to empty, which is every field of the correlator
// but its options, its observer's delivery, its node pool and its store's latch.
type streamState struct {
	// A live span is held in exactly one of three places: the reorder buffer
	// until the watermark releases it, stragglers if it arrived behind the
	// release point and no repair has run yet, and its level's released run
	// from then until a fold moves it into hist (see liveRuns).
	//
	// The reorder buffer is one run in sweep order, buf[bufAt:]: a batch
	// merges into its tail, a drain cuts its prefix. The released prefix
	// before bufAt is nil, and moves out once it passes half the array.
	buf        []*trace.Span
	bufAt      int
	stragglers []*trace.Span // arrived behind the release point; Flush repairs
	// rel holds the released spans per level, in sweep order with running
	// prefix maxima over End — the index the straggler repair uses to
	// collect every span overlapping a repair window in O(log n + k).
	rel levelRuns

	// parented holds the live spans fed with a ParentID: the correlator owns
	// every link but theirs. Empty on server traffic, which is unparented.
	parented map[*trace.Span]bool

	// owning is set by the first FeedOwned: from then on a fold recycles the
	// spans it encodes (see recycle), all but those in kept, the live spans
	// that were only lent: live at that first owned batch, or fed since by
	// Feed or FeedLogged.
	owning bool
	kept   map[*trace.Span]bool

	maxBegin vclock.Time
	// floor is the release floor: the latest span in sweep order this stream
	// released — by the drain, by relive, or in the process it was recovered
	// from — as its own copy of the key (see eventKey). Spans at or behind it
	// are stragglers. Only raiseFloor moves it, and never back.
	floor    *trace.Span
	released int

	stacks levelStacks
	levels []trace.Level // sorted distinct levels seen
	// corr maps a resolved launch's correlation id to its parent (and, under
	// CorrRetain, the watermark it was set at): one direct-mapped table
	// (trace.CorrTable) of 24-byte slots, one to two a live entry on the
	// counter-assigned ids tracers send, spilling to a map only ids that collide
	// while it is under a quarter full. It survives checkpoints. pending is
	// the rare path — an exec that arrived before its launch — and stays a map.
	corr    trace.CorrTable[corrEntry]
	pending map[uint64][]pendingExec

	degraded    bool
	windowStart vclock.Time
	windowEnd   vclock.Time
	winCands    []*trace.Span // possible containers for the deferred spans
	winDeferred []*trace.Span // spans awaiting the window's interval trees
	windows     int
	chained     int // windows closed at the size bound with a successor chained

	stragglersSeen int
	repaired       int // spans re-correlated by straggler repair, cumulative

	corrLog     []corrRecord // resolved launches in watermark order, for CorrRetain eviction
	corrSweep   vclock.Time  // watermark at the last CorrRetain eviction sweep
	corrEvicted int

	hist      history // immutable finalized history: the checkpoint ladder
	reopens   int
	foldCheck int // released count at the last automatic fold attempt

	foldEvicted, foldMerged []*trace.Span // fold's scratch, empty between folds

	walSpans int // spans the WAL holds, live or since folded: its snapshot's tail plus every batch logged after it
}

// corrEntry is a resolved launch's correlation-table entry: its parent (0:
// the launch found none, which every reader treats as absent) and, under
// CorrRetain, the watermark at its last set — the key its corrRecords match.
type corrEntry struct {
	parent uint64
	at     vclock.Time
}

// corrRecord remembers when (in watermark time) a correlation-id entry was
// last set, so the CorrRetain sweep can evict entries the watermark has
// passed by more than the retention horizon. Records are appended as
// launches resolve, so the log is watermark-ordered and eviction pops a
// prefix.
type corrRecord struct {
	corr uint64
	at   vclock.Time
}

// pendingExec is an execution span waiting for its launch to resolve. The
// containment fallback (the batch second pass) is computed at arrival,
// while the ancestor stacks still hold the exec's position, and applied if
// the launch never resolves to a parent. A straggler repair refreshes the
// fallback for pending execs inside its window.
type pendingExec struct {
	span        *trace.Span
	containment uint64
}

// settle ends the wait: the exec takes its launch's parent or — when the
// launch found none, or never came (parent 0) — its containment fallback,
// matching the batch second pass. A link the exec already holds stands.
func (p pendingExec) settle(parent uint64) {
	if parent == 0 {
		parent = p.containment
	}
	if parent != 0 && p.span.ParentID == 0 {
		p.span.ParentID = parent
	}
}

// NewStreamCorrelator returns an empty streaming correlator.
func NewStreamCorrelator(opts StreamOptions) *StreamCorrelator {
	return &StreamCorrelator{opts: opts, observe: observerRuns(opts.Observer), streamState: newStreamState()}
}

func newStreamState() streamState {
	return streamState{
		parented: make(map[*trace.Span]bool),
		pending:  make(map[uint64][]pendingExec),
	}
}

// owns reports whether s was fed unparented: its ParentID is the correlator's.
func (sc *StreamCorrelator) owns(s *trace.Span) bool { return !sc.parented[s] }

// eventKey copies what compareEvents reads of s: a release floor the stream
// owns, which stays valid after the span itself is folded and recycled.
func eventKey(s *trace.Span) *trace.Span {
	return &trace.Span{ID: s.ID, Level: s.Level, Kind: s.Kind, Begin: s.Begin, End: s.End}
}

// keep marks spans as lent to an owning stream: no fold recycles them.
func (sc *StreamCorrelator) keep(spans []*trace.Span) {
	if sc.kept == nil {
		sc.kept = make(map[*trace.Span]bool)
	}
	for _, s := range spans {
		if s != nil {
			sc.kept[s] = true
		}
	}
}

// recycle gives the slots of folded spans back to the trace free list, all
// but the lent ones, and forgets those. spans is fold's scratch: it is
// filtered in place.
func (sc *StreamCorrelator) recycle(spans []*trace.Span) {
	if len(sc.kept) > 0 {
		own := spans[:0]
		for _, s := range spans {
			if sc.kept[s] {
				delete(sc.kept, s)
			} else {
				own = append(own, s)
			}
		}
		spans = own
	}
	trace.RecycleSpans(spans)
}

// liveRuns lists the live set, holder by holder: each level's released run
// and the reorder buffer (both in sweep order, so begin-ascending) and the
// unrepaired stragglers (arrival order). The runs are the holders' own
// arrays: read them under sc.mu, and do not keep them past it.
func (sc *StreamCorrelator) liveRuns() [][]*trace.Span {
	runs := make([][]*trace.Span, 0, len(sc.levels)+2)
	for _, l := range sc.levels {
		runs = append(runs, sc.rel.slot(l).spans)
	}
	return append(runs, sc.buffered(), sc.stragglers)
}

// buffered is the reorder buffer's live run.
func (sc *StreamCorrelator) buffered() []*trace.Span { return sc.buf[sc.bufAt:] }

// liveLen is the number of live spans: what liveRuns holds.
func (sc *StreamCorrelator) liveLen() int {
	n := len(sc.buffered()) + len(sc.stragglers)
	for _, l := range sc.levels {
		n += len(sc.rel.slot(l).spans)
	}
	return n
}

// Publish implements trace.Collector, so the correlator can tap a span
// stream directly (xsp-server's RAM tenants feed it through a trace.AsyncTap).
func (sc *StreamCorrelator) Publish(spans ...*trace.Span) { sc.Feed(spans...) }

// Feed consumes the next spans in arrival order, resolving every parent
// the stream's progress allows. It is FeedLogged without a batch id or an
// acknowledgment to withhold: with StreamOptions.Store set the batch is
// appended to the WAL before it is consumed, and the batch a failing append
// latches on (see DurabilityErr) is not consumed, here as there.
func (sc *StreamCorrelator) Feed(spans ...*trace.Span) {
	_ = sc.FeedLogged(0, spans...)
}

// feedLocked is FeedLogged past the WAL append, or FeedOwned when owned.
// Callers hold sc.mu.
func (sc *StreamCorrelator) feedLocked(spans []*trace.Span, owned bool) {
	spans = sc.opts.isolate(spans)
	switch {
	case owned && !sc.owning:
		// From the first owned batch on, folds recycle: what is live now
		// was lent.
		sc.owning = true
		for _, run := range sc.liveRuns() {
			sc.keep(run)
		}
	case !owned && sc.owning:
		sc.keep(spans)
	}
	if len(sc.buf)+len(spans) > cap(sc.buf) {
		sc.compactBuf() // the released prefix makes room first: the array grows only past the live spans
		sc.buf = slices.Grow(sc.buf, len(spans))
	}
	arrived := len(sc.buf)
	for i, s := range spans {
		if s == nil {
			continue
		}
		if s.ParentID != 0 {
			if len(sc.parented) == 0 {
				// Sized once for the batch: a profiled trace is one batch,
				// much of it linked by its tracers.
				n := 0
				for _, p := range spans[i:] {
					if p != nil && p.ParentID != 0 {
						n++
					}
				}
				sc.parented = make(map[*trace.Span]bool, n)
			}
			sc.parented[s] = true
		}
		if f := sc.floor; f != nil && compareEvents(s, f) <= 0 {
			// Arrived behind the release point — this process's, or a
			// recovered predecessor's: out-of-window straggler.
			sc.stragglers = append(sc.stragglers, s)
			sc.stragglersSeen++
			continue
		}
		sc.buf = append(sc.buf, s)
		if s.Begin > sc.maxBegin {
			sc.maxBegin = s.Begin
		}
	}
	sc.mergeArrivals(arrived)
	sc.drain(sc.maxBegin - vclock.Time(sc.opts.ReorderWindow))
	if sc.opts.CorrRetain > 0 && sc.maxBegin-sc.corrSweep >= vclock.Time(sc.opts.CorrRetain) {
		sc.corrSweep = sc.maxBegin
		sc.evictCorr()
	}
	if len(sc.stragglers) > 0 && sc.opts.Retain > 0 && !sc.degraded {
		// Repair stragglers at feed time rather than letting them pin the
		// fold horizon until the next Flush. Exact here for the same reason
		// the Flush repair is: every container of a straggler compares at
		// or before the release floor, so it is already in the released
		// timeline (never still buffered), and spans released later resolve
		// against stacks the repair has spliced the straggler into. Skipped
		// while a degraded window is open — the window pins the fold
		// horizon anyway and closes on a bounded schedule.
		sc.repair()
	}
	if sc.opts.Retain > 0 && sc.released-sc.foldCheck >= max(autoFoldEvery, sc.liveLen()*autoFoldEvery/(8<<10)) {
		sc.foldCheck = sc.released
		sc.fold()
	}
}

// evictCorr applies the CorrRetain horizon: correlation-id entries the
// watermark has passed by more than ReorderWindow+CorrRetain are dropped,
// and pending execution spans that far behind take their containment
// fallback now — their launch, were it still coming, would arrive beyond
// the retention horizon anyway (and a launch that does arrive that late
// repairs through the released runs, not the evicted entry).
// Runs amortized: one sweep per CorrRetain of watermark advance.
func (sc *StreamCorrelator) evictCorr() {
	horizon := sc.maxBegin - vclock.Time(sc.opts.ReorderWindow) - vclock.Time(sc.opts.CorrRetain)
	k := 0
	for k < len(sc.corrLog) && sc.corrLog[k].at < horizon {
		rec := sc.corrLog[k]
		k++
		// A record is authoritative only if the entry was not re-set since
		// (a straggler repair refreshes launches it touches): a superseded
		// record neither evicts nor counts — the newer record will.
		if e, ok := sc.corr.Get(rec.corr); ok && e.at == rec.at {
			sc.corr.Delete(rec.corr)
			sc.corrEvicted++
		}
	}
	if k > 0 {
		n := copy(sc.corrLog, sc.corrLog[k:])
		clear(sc.corrLog[n:])
		sc.corrLog = sc.corrLog[:n]
	}
	for corr, waiting := range sc.pending {
		keep := waiting[:0]
		for _, p := range waiting {
			if p.span.Begin >= horizon {
				keep = append(keep, p)
			} else {
				p.settle(0)
			}
		}
		if len(keep) == 0 {
			delete(sc.pending, corr)
		} else {
			sc.pending[corr] = keep
		}
	}
}

// setCorr records a launch's resolved parent under its correlation id, set
// at watermark at. Under CorrRetain the entry keeps at and is logged for the
// sweep that ages it out — re-setting an entry (straggler repair) supersedes
// its earlier records; without it at is dropped, so an entry is its parent.
func (sc *StreamCorrelator) setCorr(corr, parent uint64, at vclock.Time) {
	if sc.opts.CorrRetain > 0 {
		sc.corrLog = append(sc.corrLog, corrRecord{corr: corr, at: at})
	} else {
		at = 0
	}
	sc.corr.Put(corr, corrEntry{parent: parent, at: at})
}

// corrParent is the parent a launch resolved to under corr: 0 when it found
// none, or no launch with corr has resolved (or its entry was evicted) —
// which resolved tells apart.
func (sc *StreamCorrelator) corrParent(corr uint64) (parent uint64, resolved bool) {
	e, ok := sc.corr.Get(corr)
	return e.parent, ok
}

// mergeArrivals makes the reorder buffer one run again once a batch's
// arrivals are appended to it, from index at: the batch is sorted once —
// by trace.SortAdaptive, one scan for a batch in sweep order and a few
// moves for a decoded one, canonical and so out of sweep order only at
// (Begin, Level) ties — and merged into the buffer from where its head
// sorts: a batch whose head sorts at or after the buffer's tail is already
// in place. Both the sort and the merge are stable, so spans that compare
// equal stay in arrival order.
func (sc *StreamCorrelator) mergeArrivals(at int) {
	batch := sc.buf[at:]
	trace.SortAdaptive(batch, func(a, b *trace.Span) bool { return compareEvents(a, b) < 0 })
	if len(batch) > 0 && at > sc.bufAt && compareEvents(batch[0], sc.buf[at-1]) < 0 {
		sc.merging = append(sc.merging[:0], batch...)
		// In place: the buffer's own tail is the room the merge grows into.
		mergeTail(sc.buf[sc.bufAt:at], sc.merging)
		clear(sc.merging)
	}
}

// drain releases buffered spans whose begin the watermark has passed into
// the resolver, and hands the observer what it released as one run. The
// buffer is in sweep order, so they are its prefix: spans that compare
// equal — the same span fed twice — release in arrival order.
func (sc *StreamCorrelator) drain(watermark vclock.Time) {
	run := sc.buffered()
	if watermark < sc.maxBegin {
		run = run[:sort.Search(len(run), func(i int) bool { return run[i].Begin > watermark })]
	} else {
		sc.grow(run) // everything buffered releases
	}
	if len(run) == 0 {
		return
	}
	for _, s := range run {
		sc.resolve(s)
		sc.rel.slot(s.Level).push(s)
	}
	sc.raiseFloor(run[len(run)-1])
	sc.released += len(run)
	if sc.observe != nil {
		sc.observe(run)
	}
	clear(run) // the buffer must not keep a span from the collector
	sc.bufAt += len(run)
	if sc.bufAt == len(sc.buf) || sc.bufAt > cap(sc.buf)/2 {
		sc.compactBuf()
	}
}

// compactBuf moves the reorder buffer's live spans to the front of its
// array, over the released prefix: the array is kept.
func (sc *StreamCorrelator) compactBuf() {
	n := copy(sc.buf, sc.buffered())
	clear(sc.buf[n:])
	sc.buf, sc.bufAt = sc.buf[:n], 0
}

// grow sizes the released runs, and the correlation table, for spans about
// to be released, so a batch released whole grows each once (a level past
// perLevel's flat array grows as it goes).
func (sc *StreamCorrelator) grow(spans []*trace.Span) {
	var n perLevel[int]
	launches := 0
	for _, s := range spans {
		*n.slot(s.Level)++
		if s.Kind == trace.KindLaunch {
			launches++
		}
	}
	for l, c := range n.flat {
		r := &sc.rel.flat[l]
		r.spans, r.maxEnd = slices.Grow(r.spans, c), slices.Grow(r.maxEnd, c)
	}
	if launches > 0 {
		sc.corr.Grow(sc.corr.Len() + launches)
	}
}

// Flush finalizes everything the stream could not: it releases the
// reorder buffer, closes an open degraded window, repairs any stragglers
// that arrived behind the release point (re-correlating just the spans
// overlapping their window), and applies the containment fallback to
// execution spans whose launch never resolved — so the final parent
// assignment is exactly what Correlate would produce. The stream
// remains usable: later Feed calls continue from the flushed state.
func (sc *StreamCorrelator) Flush() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.drain(vclock.Time(math.MaxInt64))
	if sc.degraded {
		sc.closeWindow()
	}
	if len(sc.stragglers) > 0 {
		sc.repair()
	}
	for corr, waiting := range sc.pending {
		for _, p := range waiting {
			p.settle(0)
		}
		delete(sc.pending, corr)
	}
}

// Reset discards every accumulated span and all resolver state — live and
// checkpointed — returning the correlator to empty, the streaming
// counterpart of trace.Memory.Reset for when the collector the correlator
// taps is reset between independent evaluation runs. The progress counters
// (stragglers, degraded windows, repairs, checkpoints) restart from zero
// too. Like Memory.Reset, it is not atomic with respect to in-flight
// feeds: quiesce publishers first.
func (sc *StreamCorrelator) Reset() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.hist.release()
	sc.streamState = newStreamState()
	// Durable state resets with the rest; durErr stays latched — a store
	// that failed once is not trusted again until the process restarts.
	if sc.durable() {
		sc.durErr = sc.opts.Store.Reset()
	}
}

// Close lets go of the segment files the history reads, each closed once no
// view still pins it. The correlator must not be fed or read after.
func (sc *StreamCorrelator) Close() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.hist.release()
	sc.hist.segs = nil
}

// resolve advances the online sweep by one span, in sweep order.
func (sc *StreamCorrelator) resolve(s *trace.Span) {
	if sc.degraded && s.Begin >= sc.windowEnd {
		sc.closeWindow()
	}
	sc.noteLevel(s.Level)

	st := sc.stacks.slot(s.Level)
	popDead(st, s.Begin)
	if stack := *st; len(stack) > 0 && sc.deeperLevelSeen(s.Level) && stackConflict(stack[len(stack)-1], s) {
		// Pipelined overlap at a parent-capable level: degrade this window
		// to the interval-tree fallback, like the batch auto strategy —
		// but only until the overlap clears, not for the whole stream.
		if !sc.degraded {
			sc.openWindow(stack[len(stack)-1], s.Begin)
		}
		if s.End > sc.windowEnd {
			sc.windowEnd = s.End
		}
	}

	if sc.degraded {
		sc.winCands = append(sc.winCands, s)
		if s.ParentID == 0 {
			sc.winDeferred = append(sc.winDeferred, s)
		}
		if bound := sc.windowBound(); bound > 0 && len(sc.winCands) >= bound {
			// The window hit its size bound under still-open overlap: close
			// it here — exact, since every container of its deferred spans
			// has already been released into it — and let the next
			// conflicting span chain a successor seeded from the ancestor
			// stacks. Keeping windows bounded keeps the fold horizon
			// advancing under sustained pipelined overlap.
			sc.closeWindow()
			sc.chained++
		}
	} else if s.ParentID == 0 {
		if s.Kind != trace.KindExec {
			if p := sc.stacks.parent(sc.levels, s); p != nil {
				s.ParentID = p.ID
			}
			if s.Kind == trace.KindLaunch && s.CorrelationID != 0 {
				sc.setCorr(s.CorrelationID, s.ParentID, sc.maxBegin)
				sc.launchResolved(s.CorrelationID, s.ParentID)
			}
		} else {
			sc.resolveExec(s, func() uint64 {
				if p := sc.stacks.parent(sc.levels, s); p != nil {
					return p.ID
				}
				return 0
			})
		}
	}

	*st = append(*st, s)
}

// resolveExec links an execution span through its launch's correlation id
// when the launch has already resolved to a parent, and by containment when
// it resolved to none; otherwise the span waits in the pending table with
// its containment fallback (computed now, while the stacks hold this
// position) for the launch — or Flush.
func (sc *StreamCorrelator) resolveExec(s *trace.Span, containment func() uint64) {
	pid, resolved := sc.corrParent(s.CorrelationID)
	if pid != 0 {
		s.ParentID = pid
		return
	}
	c := containment()
	if s.CorrelationID == 0 || resolved {
		// No launch can ever resolve it, or its launch found no parent:
		// containment is final, exactly the batch second pass. A pending
		// exec pins the fold horizon, so it must not wait for nothing.
		if c != 0 {
			s.ParentID = c
		}
		return
	}
	sc.pending[s.CorrelationID] = append(sc.pending[s.CorrelationID], pendingExec{span: s, containment: c})
}

// launchResolved resolves the execution spans waiting on a launch the
// moment the launch's own parent is known: they inherit it, or take their
// stored containment fallback when the launch found none — matching the
// batch second pass. In-order traffic has nothing pending, and the table is
// not probed.
func (sc *StreamCorrelator) launchResolved(corr, parent uint64) {
	if len(sc.pending) == 0 {
		return
	}
	waiting := sc.pending[corr]
	if len(waiting) == 0 {
		return
	}
	delete(sc.pending, corr)
	for _, p := range waiting {
		p.settle(parent)
	}
}

// windowBound is the degraded-window size bound: maxWindowSpans unless a
// test set its own, none when that is negative.
func (sc *StreamCorrelator) windowBound() int {
	switch {
	case sc.opts.windowSpans > 0:
		return sc.opts.windowSpans
	case sc.opts.windowSpans < 0:
		return 0
	default:
		return maxWindowSpans
	}
}

// openWindow starts a degraded window at the current sweep position. The
// candidate set is seeded with every span still active on any stack: a
// container of a span inside the window either is active now or arrives
// during the window. A dead span a stack still holds — it ended before the
// window, so it contains nothing in it — is left out: a fold while the window
// is open may take it, and recycle it. The window's start position gates
// checkpoint folding while the window stays open.
func (sc *StreamCorrelator) openWindow(top *trace.Span, at vclock.Time) {
	sc.degraded = true
	sc.windows++
	sc.windowStart = at
	sc.windowEnd = top.End
	for _, l := range sc.levels {
		for _, s := range *sc.stacks.slot(l) {
			if s.End >= at {
				sc.winCands = append(sc.winCands, s)
			}
		}
	}
}

// closeWindow resolves the window's deferred spans through per-level
// interval trees built over the window candidates — the correlateTree
// logic, scoped to just this stretch of the stream.
func (sc *StreamCorrelator) closeWindow() {
	deferred, cands := sc.winDeferred, sc.winCands
	sc.degraded = false
	sc.windowStart, sc.windowEnd = 0, 0
	sc.winCands = nil
	sc.winDeferred = nil
	if len(deferred) == 0 {
		return
	}

	trees := buildLevelTrees(cands, sc.deepestLevel(), &sc.treePool)
	defer releaseLevelTrees(trees)
	tree := func(l trace.Level) *interval.Tree { return trees[l] }

	// Pass 1: launch and synchronous spans resolve by containment. The
	// queries — pure reads on the fully built trees, independent of the
	// correlation state — are precomputed for exactly these spans; the
	// application loop then fills the correlation table in window order,
	// like the batch first pass.
	var p1 []*trace.Span
	for _, s := range deferred {
		if s.ParentID == 0 && s.Kind != trace.KindExec {
			p1 = append(p1, s)
		}
	}
	parents := treeParents(sc.levels, tree, p1)
	for i, s := range p1 {
		s.ParentID = parents[i]
		if s.Kind == trace.KindLaunch && s.CorrelationID != 0 {
			sc.setCorr(s.CorrelationID, s.ParentID, sc.maxBegin)
			sc.launchResolved(s.CorrelationID, s.ParentID)
		}
	}

	// Pass 2: execution spans inherit through the now-filled table — the
	// common pipelined case, no tree walk needed — and only the misses
	// (device-only, or launch still missing) get containment queried, in
	// one batch, handed to resolveExec as their fallback.
	var p2 []*trace.Span
	for _, s := range deferred {
		if s.ParentID != 0 || s.Kind != trace.KindExec {
			continue
		}
		if pid, _ := sc.corrParent(s.CorrelationID); pid != 0 {
			s.ParentID = pid
			continue
		}
		p2 = append(p2, s)
	}
	parents = treeParents(sc.levels, tree, p2)
	for i, s := range p2 {
		pid := parents[i]
		sc.resolveExec(s, func() uint64 { return pid })
	}
}

// buildLevelTrees builds one interval tree per level over the candidate
// spans. Candidates must be begin-ascending within each level — the order
// the batch tree path gets from the trace's per-level index — so the
// trees' insertion-order tie-breaks match batch correlation exactly.
// Spans at the deepest level are skipped: parent queries only ever walk
// levels above the querying span's, so the deepest level's tree can never
// be consulted, and it would hold the bulk of the spans (the kernels).
// treeParentAt skips absent trees, making the elision invisible.
func buildLevelTrees(cands []*trace.Span, deepest trace.Level, pool *interval.Pool) map[trace.Level]*interval.Tree {
	trees := make(map[trace.Level]*interval.Tree)
	for _, c := range cands {
		if c.Level == deepest {
			continue
		}
		t := trees[c.Level]
		if t == nil {
			t = interval.NewIn(pool)
			trees[c.Level] = t
		}
		t.Insert(interval.Interval{Start: c.Begin, End: c.End, Value: c})
	}
	return trees
}

// releaseLevelTrees hands every tree's nodes back to its pool once the
// window's (or repair cluster's) queries are done. The trees are built,
// queried, and released under sc.mu, so no concurrent reader can hold
// one.
func releaseLevelTrees(trees map[trace.Level]*interval.Tree) {
	for _, t := range trees {
		t.Release()
	}
}

// deepestLevel is the deepest stack level the stream has seen — the level
// buildLevelTrees elides.
func (sc *StreamCorrelator) deepestLevel() trace.Level {
	if len(sc.levels) == 0 {
		return -1
	}
	return sc.levels[len(sc.levels)-1]
}

// repair is the straggler path: spans arrived so far out of order that the
// online sweep's answers inside their window may be stale. Instead of
// re-running batch correlation over the whole accumulated trace, the
// repair re-correlates only the repair region — every released span whose
// interval overlaps the stragglers' combined window [lo, hi]. That set
// provably contains every span whose batch parent the stragglers' presence
// can change (a straggler can only parent spans it contains, and every
// container of an affected span overlaps the window too), so the result is
// exactly the batch assignment at a cost proportional to the window's
// span population, not the stream's length. Launches whose parent moved
// propagate through the correlation table to execution spans outside the
// window, which one pass over the released runs finds: the one step that
// costs the live set rather than the region, and only when a launch moved.
// Stragglers behind the checkpoint horizon first reopen it — take
// the folded spans their windows overlap back live (see relive) — so the
// regions include them; the rest of the checkpoint stays folded.
func (sc *StreamCorrelator) repair() {
	stragglers := sc.stragglers
	sc.stragglers = nil

	// Independent stragglers repair independently: cluster the straggler
	// windows by interval overlap, so one stray early arrival does not
	// widen the region around a burst of late ones.
	slices.SortFunc(stragglers, compareEvents)
	var clusters []window
	for _, s := range stragglers {
		if n := len(clusters); n > 0 && s.Begin <= clusters[n-1].hi {
			if s.End > clusters[n-1].hi {
				clusters[n-1].hi = s.End
			}
		} else {
			clusters = append(clusters, window{lo: s.Begin, hi: s.End})
		}
	}
	// A window reaching behind the checkpoint horizon reopens it — the
	// window, not the ladder: every folded span overlapping a cluster moves
	// back into the live released state, so the regions below still find in
	// rel every released span overlapping [lo, hi].
	pulled := 0
	if sc.hist.reaches(clusters[0].lo) {
		back, err := sc.hist.extractOverlapping(clusters)
		if err != nil {
			sc.latch(err)
		}
		pulled = sc.relive(back)
	}

	// Splice the stragglers into the released timeline: their levels' runs
	// and the ancestor stacks (they may contain or parent spans that arrive
	// after this Flush).
	for _, s := range stragglers {
		sc.noteLevel(s.Level)
		sc.stackInsert(s)
	}
	sc.splice(stragglers)
	sc.released += len(stragglers)

	// The pending execs as one more released run, built once: each cluster
	// then refreshes only the pending entries overlapping its window in
	// O(log p + hits) instead of rescanning the whole table per cluster —
	// a device-only stream keeps every exec pending, so the table can be
	// half the trace.
	pending := make(map[*trace.Span]*pendingExec)
	var pendSpans []*trace.Span
	for _, waiting := range sc.pending {
		for i := range waiting {
			pending[waiting[i].span] = &waiting[i]
			pendSpans = append(pendSpans, waiting[i].span)
		}
	}
	slices.SortFunc(pendSpans, compareEvents)
	var pendRun levelRun
	for _, s := range pendSpans {
		pendRun.push(s)
	}

	dirty := make(map[uint64]uint64)
	var cands, pass1, pass2 []*trace.Span
	for _, w := range clusters {
		// The repair region: every released span overlapping [lo, hi], per
		// level in sweep order (so the trees tie-break like batch).
		cands = cands[:0]
		for _, l := range sc.levels {
			cands = sc.rel.slot(l).overlapping(w.lo, w.hi, cands)
		}

		// Reset every owned span in the region: the stragglers may change
		// any of their parents, and unaffected ones re-derive the same
		// parent — the region contains all of their containers. Under
		// CorrRetain, a correlation-carrying exec's settled link is
		// remembered first: its launch's table entry may have been evicted
		// (the launch itself unchanged, outside the region), and pass 2
		// must restore the settled link rather than degrade a timely,
		// correctly-resolved exec to containment.
		var settledExec map[*trace.Span]uint64
		if sc.opts.CorrRetain > 0 {
			settledExec = make(map[*trace.Span]uint64)
		}
		for _, c := range cands {
			if sc.owns(c) {
				if settledExec != nil && c.Kind == trace.KindExec && c.CorrelationID != 0 && c.ParentID != 0 {
					settledExec[c] = c.ParentID
				}
				c.ParentID = 0
				sc.repaired++
			}
		}

		trees := buildLevelTrees(cands, sc.deepestLevel(), &sc.treePool)
		tree := func(l trace.Level) *interval.Tree { return trees[l] }
		parentAt := func(s *trace.Span) uint64 {
			if p := treeParentAt(sc.levels, tree, s); p != nil {
				return p.ID
			}
			return 0
		}

		// Pass 1: launch and synchronous spans re-resolve by containment.
		// Launches whose parent moved mark their correlation id dirty.
		// The containment queries — pure reads on the built trees — are
		// precomputed for exactly the spans that need them; the application
		// loop then fills the correlation table in region order.
		pass1 = pass1[:0]
		for _, s := range cands {
			if sc.owns(s) && s.Kind != trace.KindExec {
				pass1 = append(pass1, s)
			}
		}
		parents := treeParents(sc.levels, tree, pass1)
		for i, s := range pass1 {
			s.ParentID = parents[i]
			if s.Kind == trace.KindLaunch && s.CorrelationID != 0 {
				old, _ := sc.corrParent(s.CorrelationID)
				sc.setCorr(s.CorrelationID, s.ParentID, sc.maxBegin)
				if old != s.ParentID {
					// Changed — or newly resolved: a straggler launch whose
					// exec a previous Flush finalized by containment must
					// now propagate the correlation, like batch would.
					dirty[s.CorrelationID] = s.ParentID
				}
			}
		}

		// Refresh the stored containment fallback of pending execs inside
		// the window: a straggler may be a tighter container than the one
		// recorded at arrival. (Outside the windows the candidate set is
		// unchanged, so the stored fallback stands.)
		for _, s := range pendRun.overlapping(w.lo, w.hi, nil) {
			pending[s].containment = parentAt(s)
		}

		// Pass 2: execution spans in the region inherit through the
		// (possibly repaired) correlation table; device-only records and
		// execs whose launch never arrived and was already finalized take
		// containment. Still-pending execs keep waiting — their refreshed
		// fallback applies at the end of Flush. An exec whose entry is
		// absent only because CorrRetain evicted it keeps its settled
		// link (a launch repaired inside the region re-set the entry, so
		// it never lands here; one outside the region did not move). Only
		// the execs that actually fall back to containment — knowable now
		// that pass 1 settled the correlation table — are queried.
		pass2 = pass2[:0]
		for _, s := range cands {
			if !sc.owns(s) || s.Kind != trace.KindExec || s.ParentID != 0 {
				continue
			}
			if s.CorrelationID != 0 {
				pid, resolved := sc.corrParent(s.CorrelationID)
				if pid != 0 {
					s.ParentID = pid
					continue
				}
				if pending[s] != nil {
					continue
				}
				if pid, ok := settledExec[s]; ok && !resolved {
					s.ParentID = pid
					continue
				}
			}
			pass2 = append(pass2, s)
		}
		parents = treeParents(sc.levels, tree, pass2)
		for i, s := range pass2 {
			s.ParentID = parents[i]
		}
		releaseLevelTrees(trees)
	}

	// A straggler launch resolves the execs that were pending on its
	// correlation id, wherever they sit in the stream — to containment when
	// it found no parent.
	for corr, waiting := range sc.pending {
		if pid, resolved := sc.corrParent(corr); resolved {
			delete(sc.pending, corr)
			for _, p := range waiting {
				p.settle(pid)
			}
		}
	}

	// Execs outside the regions whose launch's parent moved follow the
	// correlation id. (An unresolved launch parent propagates nothing:
	// batch leaves such execs to containment, which they already hold.)
	// Folded ones among them leave the checkpoint first, like the windows'
	// spans did: the link they take must reach the WAL, not only memory. That
	// does not wait for a window to reach behind the horizon — an exec can
	// have folded while its launch, ending later, stayed live — and costs a
	// range check per segment when nothing folded hangs on a moved launch.
	// The live ones are found where every released span is, in the runs.
	if len(dirty) > 0 {
		moved := newMovedLaunches(dirty)
		if sc.hist.spans > 0 {
			back, err := sc.hist.extractExecs(moved)
			if err != nil {
				sc.latch(err)
			}
			pulled += sc.relive(back)
		}
		for _, l := range sc.levels {
			for _, s := range sc.rel.slot(l).spans {
				if pid := moved.newParent(s.Kind, s.CorrelationID, s.ParentID); pid != 0 && sc.owns(s) {
					s.ParentID = pid
				}
			}
		}
	}

	// Stragglers are accepted spans the drain-time observer never saw:
	// deliver them now, after their parents settled. They arrive behind
	// the release frontier, so observers tracking delivery order see them
	// as out-of-order (which is what they are).
	if sc.observe != nil {
		sc.observe(stragglers)
	}

	// A reopen moved folded spans into the live tail: the WAL rotates so its
	// snapshot carries them, before the segments they left are rewritten.
	if pulled > 0 {
		sc.reopens++
		sc.commit(true)
	}
}

// relive moves spans a straggler repair took out of the history (see
// history.extract) back into the live released state: the parented set (from
// the owned bit) and their level's released run. Returns the number of spans
// moved.
func (sc *StreamCorrelator) relive(back []folded) int {
	spans := make([]*trace.Span, len(back))
	for i, f := range back {
		spans[i] = f.span
		if !f.own {
			sc.parented[f.span] = true
		}
	}
	slices.SortFunc(spans, compareEvents) // canonical order is not sweep order
	sc.splice(spans)
	// They are released spans again, so what arrives behind them is a
	// straggler. The process that folded them had released past them; one
	// recovered from its files has not, until its replay does.
	if n := len(spans); n > 0 {
		sc.raiseFloor(spans[n-1])
	}
	return len(back)
}

// splice merges spans, in sweep order, into their levels' released runs: one
// merge per touched level, not one O(tail) insert per span.
func (sc *StreamCorrelator) splice(spans []*trace.Span) {
	byLevel := make(map[trace.Level][]*trace.Span)
	for _, s := range spans {
		byLevel[s.Level] = append(byLevel[s.Level], s)
	}
	for l, batch := range byLevel {
		sc.rel.slot(l).mergeIn(batch)
	}
}

// stackInsert places a repaired straggler at its sweep-order position on
// its level's ancestor stack, so spans released after the repair can still
// find it as a container. Sweep order, not just begin order: among spans
// of one interval the stack scan keeps the first, and the batch sweep
// pushed them in canonical order.
func (sc *StreamCorrelator) stackInsert(s *trace.Span) {
	st := sc.stacks.slot(s.Level)
	i := sort.Search(len(*st), func(i int) bool { return compareEvents((*st)[i], s) > 0 })
	*st = slices.Insert(*st, i, s)
}

// noteLevel records a stack level the stream has seen.
func (sc *StreamCorrelator) noteLevel(l trace.Level) {
	i, found := slices.BinarySearch(sc.levels, l)
	if !found {
		sc.levels = slices.Insert(sc.levels, i, l)
	}
}

// deeperLevelSeen reports whether any level below l has appeared — only
// then can spans at l be queried as parents, making overlap at l matter
// (the batch eligibility check likewise skips the deepest level).
func (sc *StreamCorrelator) deeperLevelSeen(l trace.Level) bool {
	return len(sc.levels) > 0 && sc.levels[len(sc.levels)-1] > l
}

// finalizedBefore returns the horizon behind which live spans are
// finalized: the sweep has passed them by more than ReorderWindow+Retain,
// no open degraded window reaches back to them, no execution span behind
// it still waits for its launch, and no straggler awaiting repair begins
// before it. Spans ending before the horizon can fold into a checkpoint.
func (sc *StreamCorrelator) finalizedBefore() vclock.Time {
	f := sc.maxBegin - vclock.Time(sc.opts.ReorderWindow) - vclock.Time(sc.opts.Retain)
	if fl := sc.floor; fl != nil && fl.Begin < f {
		// The sweep itself is the hard bound: a future arrival is only a
		// non-straggler if it sorts after the release floor, so it can
		// still need any span ending at or after the floor's begin as a
		// container. When arrivals outpace releases (skew beyond the
		// reorder window, sparse regions), the watermark horizon above
		// runs ahead of the sweep and would fold containers away from
		// spans still entitled to arrive in-window.
		f = fl.Begin
	}
	if sc.degraded && sc.windowStart < f {
		f = sc.windowStart
	}
	for _, waiting := range sc.pending {
		for _, p := range waiting {
			if p.span.Begin < f {
				f = p.span.Begin
			}
		}
	}
	for _, s := range sc.stragglers {
		if s.Begin < f {
			f = s.Begin
		}
	}
	return f
}

// Checkpoint folds every finalized live span (see StreamOptions.Retain
// for the finalization horizon) into an immutable checkpoint segment and
// returns the number folded. Checkpointed spans keep their settled parent
// links and stay visible through Trace and SnapshotTrace — the fold only
// retires them from the live resolver state, so a long-running stream's
// repairable tail stays bounded. Folding is exact: a straggler that later
// reaches behind the checkpoint horizon takes what it needs back out. With
// StreamOptions.Retain set, Feed folds automatically; Checkpoint is the
// on-demand form.
func (sc *StreamCorrelator) Checkpoint() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.fold()
}

// fold moves finalized released spans out of the live state into a new
// checkpoint segment. The in-memory pass costs O(live) pointer work, which
// Feed's cadence amortizes (see autoFoldEvery). The durable part costs
// O(spans folded): see walNeedsRotation.
func (sc *StreamCorrelator) fold() int {
	f := sc.finalizedBefore()
	// The evicted runs and their merge are read once, by the encoder: both
	// live in scratch arrays the folds share, cleared before they are put
	// back so that nothing keeps the folded spans from the collector.
	var runs [][]*trace.Span
	evicted := sc.foldEvicted[:0]
	for _, l := range sc.levels {
		at := len(evicted)
		if evicted = sc.rel.slot(l).evictBefore(f, evicted); len(evicted) > at {
			runs = append(runs, evicted[at:])
		}
	}
	if len(runs) == 0 {
		return 0
	}

	// The eviction rule retires the folded spans from the ancestor stacks
	// too, where they may still sit (dead): every span on a stack was
	// released, and a released span ending before f was evicted just now.
	for _, l := range sc.levels {
		st := sc.stacks.slot(l)
		keep := (*st)[:0]
		for _, s := range *st {
			if s.End >= f {
				keep = append(keep, s)
			}
		}
		clear((*st)[len(keep):])
		*st = keep
	}

	// The levels' evicted runs are begin-ascending: the merge reads them in place.
	spans := trace.MergeRunsInto(sc.foldMerged, runs)
	sc.hist.add(spans, func(i int) bool { return sc.owns(spans[i]) }, sc.durable())
	for _, s := range spans {
		delete(sc.parented, s)
	}
	folded := len(spans)
	if sc.owning {
		sc.recycle(spans)
	}
	clear(evicted)
	clear(spans)
	sc.foldEvicted, sc.foldMerged = evicted[:0], spans[:0]

	// Durability: the segment files are written every time, which is
	// O(spans folded); the WAL trim, which is O(live tail), only when the
	// rotation rule says it pays. Until then the folded spans sit in both a
	// segment and the WAL, and recovery installs the segment and drops its
	// spans from replay by span-id dedup.
	sc.commit(sc.walNeedsRotation())
	return folded
}

// View pins the stream for one read: the history's segment list and header
// copies of the live tail (trace.CloneHeaders), taken under the mutex, and
// merged into canonical order — records handed out as they lie in their
// blocks — each time the view is walked, after the mutex is released. So a
// read of a long history delays ingest by the live tail, not by the
// history, and a reply streams from the folded records without decoding
// them. Not raw, every span carries the parent the resolver has settled so
// far. Raw, every link the resolver assigned — a folded record's owned flag,
// owns for the live tail — reads zero again and a tracer-supplied ParentID
// stays: what a raw store fed the same batches would serve, at query-time
// cost only, so the correlator can be a server tenant's one span store. The
// live tail's Tags and Metrics are copied with the headers, because a fold
// recycles an owned span's entry arrays; Name, Source and the entries'
// strings are shared read-only: immutable once published.
func (sc *StreamCorrelator) View(raw bool) trace.View {
	live := trace.CloneHeaders
	if raw {
		live = func(run []*trace.Span) []*trace.Span {
			headers := trace.CloneHeaders(run)
			for i, s := range run {
				if sc.owns(s) {
					headers[i].ParentID = 0
				}
			}
			return headers
		}
	}
	p := sc.pin(live)
	p.fail = func(err error) {
		sc.mu.Lock()
		sc.latch(err)
		sc.mu.Unlock()
	}
	return trace.View{Walk: p.walk, Raw: raw, Err: p.error, Release: p.release}
}

// SnapshotTrace is the correlated View decoded: a point-in-time snapshot
// whose parent links stay as they were while the stream keeps feeding, and
// whose header fields the caller may rewrite. Checkpointed spans come back
// as decoded copies, the live tail as header copies. A segment file that
// fails to read cuts it short, and latches DurabilityErr.
func (sc *StreamCorrelator) SnapshotTrace() *trace.Trace {
	v := sc.View(false)
	defer v.Close()
	return v.Trace()
}

// pin is what a read holds the mutex for: the history's segment list —
// segments, blocks and files are immutable, so the copy stays readable
// whatever follows, and each file is held open until the pin is released —
// and the live set, run by run, through live: a copy of each run at least,
// the holders' arrays are theirs. The live runs are merged after the mutex
// is released.
func (sc *StreamCorrelator) pin(live func(run []*trace.Span) []*trace.Span) *pinned {
	sc.mu.Lock()
	p := &pinned{segs: slices.Clone(sc.hist.segs)}
	for i := range p.segs {
		if f := p.segs[i].file; f != nil {
			f.refs.Add(1)
		}
	}
	var tail [][]*trace.Span
	for _, run := range sc.liveRuns() {
		if len(run) > 0 {
			tail = append(tail, live(run))
		}
	}
	sc.mu.Unlock()
	p.live = trace.MergeRuns(tail)
	return p
}

// StreamStats describes a correlator's progress, for observability and
// tests.
type StreamStats struct {
	Fed             int // spans consumed by Feed, including checkpointed ones
	Released        int // spans the resolver has processed in sweep order
	Buffered        int // spans waiting in the reorder buffer
	PendingExecs    int // execution spans waiting for their launch
	Stragglers      int // spans that arrived behind the release point, ever
	DegradedWindows int // windows degraded to the interval-tree fallback
	WindowsChained  int // degraded windows closed at the size bound, successor chained
	Repaired        int // spans re-correlated by straggler repair, ever
	Live            int // spans held in live, repairable state
	Checkpointed    int // spans folded into immutable checkpoint segments
	Segments        int // checkpoint segments currently held (geometric schedule keeps this ~log)
	Compactions     int // checkpoint segment merges performed, ever
	Reopens         int // straggler repairs that took folded spans back out of the checkpoint
	CorrEntries     int // live correlation-id entries (launch -> parent)
	CorrEvicted     int // correlation-id entries evicted past the CorrRetain horizon, ever
}

// Stats returns a snapshot of the stream's progress counters.
func (sc *StreamCorrelator) Stats() StreamStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return StreamStats{
		Fed:             sc.liveLen() + sc.hist.spans,
		Released:        sc.released,
		Buffered:        len(sc.buffered()),
		PendingExecs:    sc.pendingExecs(),
		Stragglers:      sc.stragglersSeen,
		DegradedWindows: sc.windows,
		WindowsChained:  sc.chained,
		Repaired:        sc.repaired,
		Live:            sc.liveLen(),
		Checkpointed:    sc.hist.spans,
		Segments:        len(sc.hist.segs),
		Compactions:     sc.hist.compactions,
		Reopens:         sc.reopens,
		CorrEntries:     sc.corr.Len(),
		CorrEvicted:     sc.corrEvicted,
	}
}

// pendingExecs counts the execution spans waiting for their launch.
func (sc *StreamCorrelator) pendingExecs() (n int) {
	for _, w := range sc.pending {
		n += len(w)
	}
	return n
}

// Load describes the correlator's live occupancy, for stats endpoints and
// logs.
type Load struct {
	LiveSpans    int // live, repairable spans (StreamStats.Live)
	Buffered     int // spans waiting in the reorder buffer
	PendingExecs int // execution spans waiting for their launch
	WindowSpans  int // candidates accumulated by the open degraded window
}

// Load returns the correlator's current occupancy. The reorder buffer,
// pending table, and degraded window are all subsets of the live span
// count; they locate where the occupancy sits.
func (sc *StreamCorrelator) Load() Load {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return Load{
		LiveSpans:    sc.liveLen(),
		Buffered:     len(sc.buffered()),
		PendingExecs: sc.pendingExecs(),
		WindowSpans:  len(sc.winCands),
	}
}

// levelRun is the released-span timeline of one level: spans in sweep
// order plus a running prefix maximum over End. The prefix maxima bound
// the leftward scan of an overlap query — the scan stops as soon as every
// earlier span provably ended before the window — so collecting a repair
// region costs O(log n) plus the region's population, not a pass over the
// level.
type levelRun struct {
	spans  []*trace.Span
	maxEnd []vclock.Time // maxEnd[i] = max of spans[j].End for j <= i
}

// push appends a span released in sweep order.
func (r *levelRun) push(s *trace.Span) {
	m := s.End
	if n := len(r.maxEnd); n > 0 && r.maxEnd[n-1] > m {
		m = r.maxEnd[n-1]
	}
	r.spans = append(r.spans, s)
	r.maxEnd = append(r.maxEnd, m)
}

// mergeIn splices a sweep-ordered batch of stragglers into the run,
// rebuilding the prefix maxima from the first insertion point — O(batch +
// tail) for the whole batch, and the tail is short for the recent
// stragglers a reorder window just missed.
func (r *levelRun) mergeIn(batch []*trace.Span) {
	if len(batch) == 0 {
		return
	}
	var first int
	r.spans, first = mergeTail(r.spans, batch)
	r.maxEnd = slices.Grow(r.maxEnd[:first], len(r.spans)-first)
	m := vclock.Time(math.MinInt64)
	if first > 0 {
		m = r.maxEnd[first-1]
	}
	for k := first; k < len(r.spans); k++ {
		if r.spans[k].End > m {
			m = r.spans[k].End
		}
		r.maxEnd = append(r.maxEnd, m)
	}
}

// mergeTail merges batch into run, both in sweep order and batch not
// empty, and returns the merged run and the first index the merge could
// move: where batch's head sorts. It merges in place, backwards from the
// grown end, so every write lands beyond the unread part of run and only
// run's suffix from that index is touched; spans that compare equal keep
// run's first.
func mergeTail(run, batch []*trace.Span) ([]*trace.Span, int) {
	n := len(run)
	first, _ := slices.BinarySearchFunc(run, batch[0], compareEvents)
	run = append(run, batch...)
	i, j := n-1, len(batch)-1
	for w := len(run) - 1; j >= 0 && i >= first; w-- {
		if compareEvents(run[i], batch[j]) > 0 {
			run[w], i = run[i], i-1
		} else {
			run[w], j = batch[j], j-1
		}
	}
	copy(run[i+1:], batch[:j+1])
	return run, first
}

// overlapping appends every span overlapping [lo, hi] to dst, in sweep
// order, and returns the extended slice.
func (r *levelRun) overlapping(lo, hi vclock.Time, dst []*trace.Span) []*trace.Span {
	end := sort.Search(len(r.spans), func(i int) bool { return r.spans[i].Begin > hi })
	mark := len(dst)
	for i := end - 1; i >= 0; i-- {
		if r.maxEnd[i] < lo {
			break // everything earlier ended before the window
		}
		if r.spans[i].End >= lo {
			dst = append(dst, r.spans[i])
		}
	}
	slices.Reverse(dst[mark:])
	return dst
}

// evictBefore removes every span ending before f, appending them to evicted
// in sweep (so begin-ascending) order, and rebuilds the run over the
// survivors.
func (r *levelRun) evictBefore(f vclock.Time, evicted []*trace.Span) []*trace.Span {
	at := len(evicted)
	keep := r.spans[:0]
	for _, s := range r.spans {
		if s.End < f {
			evicted = append(evicted, s)
		} else {
			keep = append(keep, s)
		}
	}
	if len(evicted) == at {
		return evicted
	}
	clear(r.spans[len(keep):])
	r.spans = keep
	r.maxEnd = r.maxEnd[:0]
	var m vclock.Time
	for i, s := range keep {
		if i == 0 || s.End > m {
			m = s.End
		}
		r.maxEnd = append(r.maxEnd, m)
	}
	return evicted
}

// levelRuns holds one levelRun per stack level.
type levelRuns = perLevel[levelRun]
