package core

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"sort"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// ownedBits is a bitset over a run of spans: bit i set means the correlator
// owns span i's parent link (the span was fed unparented). It is the form
// ownership takes beside decoded spans held by position — a WAL record's, a
// decoded block's; encoded, the bit is a flag in the span's record.
type ownedBits []uint64

func newOwnedBits(n int) ownedBits { return make(ownedBits, (n+63)/64) }

func (b ownedBits) set(i int) { b[i/64] |= 1 << (i % 64) }

// has reads false past the end: a record stored without a bitset owns nothing.
func (b ownedBits) has(i int) bool { return i/64 < len(b) && b[i/64]&(1<<(i%64)) != 0 }

// history is a stream's folded past — the checkpoint ladder — and the one
// place that knows how it is laid out. A folded span is not a trace.Span: it
// is one 80-byte record, plus its share of the tables, in an immutable encoded
// span block (trace.SpanBlock: what a fold encoded, once, or what a segment
// file held), and a segment is an ordered list of 8-byte references to such
// records. So what is resident per folded span is the codec's size and holds
// no pointer the collector has to follow; the ladder's work — compaction,
// extraction, remainders — compares keys read from the records and moves
// references, never encoded bytes; and a span is decoded only when somebody
// reads it, into copies the history keeps no hold on. The resolver adds
// folds, takes back what a straggler's windows overlap, reads the segments
// merged with its live tail, and persists; the zero history is empty.
//
// The correlator's mutex guards the ladder — the list of segments and the
// counters — like everything the resolver holds. The segments themselves and
// the blocks behind them are immutable, replaced and never edited, so a
// reader holds the mutex only to pin the list — copy it — and walks what it
// pinned after letting go (see StreamCorrelator.View and pinned.walk).
type history struct {
	segs        []ckptSegment // geometric compaction merges by size, so segments carry no time order
	spans       int           // folded spans, over all segments
	maxEnd      vclock.Time   // latest End among them
	compactions int           // segment merges performed by the geometric schedule
	stale       []uint64      // segment files a reopen emptied; deletable after the next WAL rotation covers their spans
	enc         []byte        // where hold encodes a block before keeping its exact-size copy; empty between holds
}

// ckptSegment is one immutable run of finalized spans in canonical order:
// refs names their records, each in one of the segment's own blocks, and a
// record's flag byte holds the owned bit a reopen (a straggler reaching
// behind the checkpoint horizon) restores the span's ownership from.
// Immutable means replaced, never edited: a merge or a reopen builds a new
// segment over a fresh refs array and a fresh list of the same blocks. No
// two segments share a block, and every block is referenced by at least half
// its records (see compactBlocks): one no reference reaches leaves with the
// segment that dropped it.
type ckptSegment struct {
	blocks []heldBlock
	refs   []trace.RecordRef

	// fileID is the segment's durable file id (0: not yet on disk);
	// replaced lists the file ids this segment supersedes — a compaction
	// merge's inputs, or the file a reopen left this remainder of — deleted
	// when this segment's own file is published.
	fileID   uint64
	replaced []uint64
}

// folded is a span on its way out of the history: decoded, with the owned
// bit its record held for it.
type folded struct {
	span *trace.Span
	own  bool
}

// window is a closed stretch [lo, hi] of virtual time: a cluster of
// straggler intervals whose overlap a repair re-correlates.
type window struct{ lo, hi vclock.Time }

// maxEncodeScratch is the most capacity history.enc keeps between holds: room
// for the block of a ~70k-span fold. A larger one — an on-demand Checkpoint
// of a whole stream — is encoded into a buffer that leaves with the call.
const maxEncodeScratch = 8 << 20

// heldBlock is a span block the history holds, with the one thing a repair
// asks of a block before reading it: which correlation ids its execution
// spans may carry.
type heldBlock struct {
	trace.SpanBlock
	// execCorr is the sorted set of corrBucket values over the block's owned
	// execution spans with a correlation id: one entry per 64 of them where a
	// tracer mints the ids densely and in order, up to one per span where it
	// does not. A block is one fold — one stretch of the stream — so a moved
	// launch's bucket is in almost no block's. Blocks are never merged, so
	// what a repair that moved a launch pays here, and what the sets weigh,
	// grows with the number of folds, not with the ladder's O(log n) segments.
	execCorr []uint64
}

// corrBucket coarsens a correlation id to the granularity execCorr keeps.
func corrBucket(corr uint64) uint64 { return corr >> 6 }

// holdBlock wraps a parsed block the history will keep.
func holdBlock(blk trace.SpanBlock) heldBlock {
	held := heldBlock{SpanBlock: blk}
	for i := 0; i < blk.Len(); i++ {
		if c := blk.CorrelationID(i); c != 0 && blk.Kind(i) == trace.KindExec && blk.Owned(i) {
			// Ids minted in order repeat a bucket 64 times running: collect it once.
			if k, n := corrBucket(c), len(held.execCorr); n == 0 || held.execCorr[n-1] != k {
				held.execCorr = append(held.execCorr, k)
			}
		}
	}
	slices.Sort(held.execCorr)
	held.execCorr = slices.Clone(slices.Compact(held.execCorr)) // not the array several interleaved streams' ids were collected in
	return held
}

// hold runs encode into the history's scratch and returns a private,
// exact-size copy of the block it appended, parsed: the held block is one
// allocation, and a stream in steady state makes no other for it.
func (h *history) hold(encode func(buf []byte) []byte) heldBlock {
	buf := encode(h.enc[:0])
	blk, _, err := trace.ParseSpanBlock(bytes.Clone(buf))
	if err != nil {
		panic(err) // the encoder's own output
	}
	if cap(buf) <= maxEncodeScratch {
		h.enc = buf[:0]
	}
	return holdBlock(blk)
}

// segmentOf returns the segment that is all of blk, whose records the caller
// knows to be in canonical order.
func segmentOf(blk heldBlock) ckptSegment {
	seg := ckptSegment{blocks: []heldBlock{blk}, refs: make([]trace.RecordRef, blk.Len())}
	for i := range seg.refs {
		seg.refs[i].Record = uint32(i)
	}
	return seg
}

// at returns the block and the record index reference i names.
func (seg *ckptSegment) at(i int) (*heldBlock, int) {
	r := seg.refs[i]
	return &seg.blocks[r.Block], int(r.Record)
}

// spanBlocks returns the segment's blocks as the codec takes them.
func (seg *ckptSegment) spanBlocks() []trace.SpanBlock {
	blocks := make([]trace.SpanBlock, len(seg.blocks))
	for b := range seg.blocks {
		blocks[b] = seg.blocks[b].SpanBlock
	}
	return blocks
}

// push appends a segment to the ladder and counts its spans in.
func (h *history) push(seg ckptSegment) {
	h.segs = append(h.segs, seg)
	h.spans += len(seg.refs)
	for i := range seg.refs {
		blk, r := seg.at(i)
		h.maxEnd = max(h.maxEnd, blk.End(r))
	}
}

// add folds spans — in canonical order, owned telling each one's bit, kept
// so a reopen can restore their ownership exactly — into a new block, one
// encode, and a new segment that is all of it, and restores the size ladder.
func (h *history) add(spans []*trace.Span, owned func(i int) bool) {
	h.push(segmentOf(h.hold(func(buf []byte) []byte { return trace.AppendSpanBlock(buf, spans, owned) })))

	// Keep the segment count in check so a snapshot's k-way merge stays
	// shallow — geometrically, so a day-long stream amortizes O(log n)
	// merge work per span instead of re-merging everything periodically.
	h.compact()
}

// install adds a recovered segment file to the ladder: its validated payload
// is the segment's block, as it is — less the records at the ascending
// indexes drop, which the WAL won — and kept is handed each record that
// stays. A file left empty is stale.
func (h *history) install(blk trace.SpanBlock, fileID uint64, drop []int, kept func(blk *trace.SpanBlock, i int)) {
	seg := segmentOf(holdBlock(blk))
	seg.fileID = fileID
	if len(drop) > 0 {
		if seg = h.without(seg, drop); len(seg.refs) == 0 {
			h.stale = append(h.stale, seg.replaced...)
			return
		}
	}
	h.push(seg)
	for i := range seg.refs {
		held, r := seg.at(i)
		kept(&held.SpanBlock, r)
	}
}

// reaches reports whether some folded span ends at or after t: whether a
// repair window opening at t has anything to take back.
func (h *history) reaches(t vclock.Time) bool { return h.spans > 0 && h.maxEnd >= t }

// pinned is one read of a stream: the history's segment list and the live
// tail as the read took them under the correlator's mutex — immutable
// segments, and one canonically ordered run of live spans nobody else
// holds — walked as often as the reader needs after the mutex is released.
type pinned struct {
	segs []ckptSegment
	live []*trace.Span
}

// walk is the one merge every read goes through: a k-way merge of the
// segments' records and the live run into canonical order, handing yield a
// folded span as its record — nothing is decoded — and a live span as
// itself. Equal keys (duplicate span ids) break toward the segments, in
// ladder order, then the live run: trace.MergeRuns' tie-break over the
// runs in that order.
func (p *pinned) walk(yield func(blk *trace.SpanBlock, i int, s *trace.Span) bool) {
	// A head is a run's next span, its key read once: run len(p.segs) is
	// the live run.
	type head struct {
		begin    vclock.Time
		level    trace.Level
		id       uint64
		run, pos int
	}
	load := func(h *head) bool {
		if h.run < len(p.segs) {
			seg := &p.segs[h.run]
			if h.pos == len(seg.refs) {
				return false
			}
			blk, r := seg.at(h.pos)
			h.begin, h.level, h.id = blk.Begin(r), blk.Level(r), blk.ID(r)
			return true
		}
		if h.pos == len(p.live) {
			return false
		}
		s := p.live[h.pos]
		h.begin, h.level, h.id = s.Begin, s.Level, s.ID
		return true
	}
	var heads []head // in run order, so the first least head wins a tie
	for run := 0; run <= len(p.segs); run++ {
		if h := (head{run: run}); load(&h) {
			heads = append(heads, h)
		}
	}
	for len(heads) > 0 {
		least := 0
		for k := 1; k < len(heads); k++ { // a ladder is ~log n segments: a scan beats a heap's bookkeeping
			a, b := &heads[k], &heads[least]
			if cmp.Or(cmp.Compare(a.begin, b.begin), cmp.Compare(a.level, b.level), cmp.Compare(a.id, b.id)) < 0 {
				least = k
			}
		}
		h := &heads[least]
		var more bool
		if h.run < len(p.segs) {
			blk, r := p.segs[h.run].at(h.pos)
			more = yield(&blk.SpanBlock, r, nil)
		} else {
			more = yield(nil, 0, p.live[h.pos])
		}
		if !more {
			return
		}
		if h.pos++; !load(h) {
			heads = slices.Delete(heads, least, least+1)
		}
	}
}

// persistLadder writes a segment file for every checkpoint segment that
// does not have one yet — fresh folds and compaction survivors — handing
// each its own replaced-file list, so a crash between two writes can
// never have deleted an input whose merged survivor is not yet on disk.
func (h *history) persistLadder(store SegmentStore) error {
	for i := range h.segs {
		seg := &h.segs[i]
		if seg.fileID != 0 {
			continue
		}
		id, err := store.WriteSegment(seg.payload(), seg.replaced)
		if err != nil {
			return err
		}
		seg.fileID, seg.replaced = id, nil
	}
	return nil
}

// payload returns the segment as one span block, its file's payload: the
// block itself when the segment is all of one block — a fresh fold, whose
// refs are then its records in order — and otherwise its records gathered in
// segment order, table offsets rebased, nothing decoded or re-encoded from
// maps.
func (seg *ckptSegment) payload() []byte {
	if len(seg.blocks) == 1 && len(seg.refs) == seg.blocks[0].Len() {
		return seg.blocks[0].Bytes()
	}
	size := 0
	for b := range seg.blocks {
		size += len(seg.blocks[b].Bytes())
	}
	return trace.GatherSpanBlock(make([]byte, 0, size), seg.spanBlocks(), seg.refs)
}

// dropStale deletes the segment files reopens emptied. Only a WAL rotation
// may call it: the rotation is what makes their spans durable elsewhere.
func (h *history) dropStale(store SegmentStore) error {
	if len(h.stale) == 0 {
		return nil
	}
	if err := store.DropSegments(h.stale); err != nil {
		return err
	}
	h.stale = nil
	return nil
}

// compact applies the geometric (size-tiered) compaction schedule: while
// any two size-adjacent checkpoint segments are within a factor of two of
// each other, the smaller pair of them merges into one. The surviving
// segments therefore form a strictly more-than-doubling size ladder — at
// most ~log2(checkpointed) segments, so Trace's k-way merge stays shallow
// — and a span takes part in a merge only when its segment's size grows
// by at least 1.5x, so a day-long stream pays O(log n) amortized merge
// work per span instead of the O(total) re-merge a fixed every-N-folds
// schedule cost. Scanning the whole ladder (not just the two smallest
// segments) matters: one tiny straggler fold must not shield a plateau of
// equal-size segments behind it from ever merging.
func (h *history) compact() {
	// order lists the segments by size, equal sizes by position, and stays
	// sorted across the merges below.
	bySize := func(a, b int) int {
		return cmp.Or(cmp.Compare(len(h.segs[a].refs), len(h.segs[b].refs)), cmp.Compare(a, b))
	}
	order := make([]int, len(h.segs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, bySize)
	for {
		pair := -1
		for i := 0; i+1 < len(order); i++ {
			if 2*len(h.segs[order[i]].refs) >= len(h.segs[order[i+1]].refs) {
				pair = i
				break
			}
		}
		if pair < 0 {
			return // the doubling ladder holds everywhere
		}
		lo, hi := min(order[pair], order[pair+1]), max(order[pair], order[pair+1])
		h.segs[lo] = mergeSegments(h.segs[lo], h.segs[hi])
		h.segs = slices.Delete(h.segs, hi, hi+1)
		h.compactions++

		// The pair leaves the order, the segments behind hi move down one
		// position, and the survivor re-enters where its new size puts it.
		order = slices.Delete(order, pair, pair+2)
		for i, k := range order {
			if k > hi {
				order[i] = k - 1
			}
		}
		at, _ := slices.BinarySearchFunc(order, lo, bySize)
		order = slices.Insert(order, at, lo)
	}
}

// less reports whether seg's span i sorts before o's span j in canonical
// order, from their records.
func (seg *ckptSegment) less(i int, o *ckptSegment, j int) bool {
	a, x := seg.at(i)
	b, y := o.at(j)
	return trace.RecordLess(&a.SpanBlock, x, &b.SpanBlock, y)
}

// mergeSegments merges two immutable checkpoint segments into one: a
// two-pointer merge of the canonically sorted inputs — ties toward a, as
// trace.MergeRuns breaks them — that moves references and reads keys from
// the records; the blocks, a's then b's, are carried as they are, the owned
// bits inside them. The merged segment has no durable file yet; it inherits
// the inputs' files (and their own pending replacements) as its replaced
// list, so persistLadder deletes them only once the merged file is on disk.
func mergeSegments(a, b ckptSegment) ckptSegment {
	seg := ckptSegment{
		blocks: slices.Concat(a.blocks, b.blocks),
		refs:   make([]trace.RecordRef, 0, len(a.refs)+len(b.refs)),
	}
	// Segments fold from successive stretches of the stream, so the merge
	// is mostly long runs from one side: gallop to the end of each run
	// rather than compare span by span.
	shift := uint32(len(a.blocks))
	i, j := 0, 0
	for i < len(a.refs) && j < len(b.refs) {
		end := i + gallop(len(a.refs)-i, func(k int) bool { return b.less(j, &a, i+k) })
		seg.take(a.refs[i:end], 0)
		if i = end; i < len(a.refs) {
			end = j + gallop(len(b.refs)-j, func(k int) bool { return !b.less(j+k, &a, i) })
			seg.take(b.refs[j:end], shift)
			j = end
		}
	}
	seg.take(a.refs[i:], 0)
	seg.take(b.refs[j:], shift)
	for _, in := range [2]ckptSegment{a, b} {
		seg.replaced = append(seg.replaced, in.replaced...)
		if in.fileID != 0 {
			seg.replaced = append(seg.replaced, in.fileID)
		}
	}
	return seg
}

// take appends refs to seg, their block indexes moved up by shift: where
// their segment's blocks start in seg's list.
func (seg *ckptSegment) take(refs []trace.RecordRef, shift uint32) {
	at := len(seg.refs)
	seg.refs = append(seg.refs, refs...)
	if shift != 0 {
		for k := at; k < len(seg.refs); k++ {
			seg.refs[k].Block += shift
		}
	}
}

// without returns seg less the spans at the ascending indexes drop: a fresh
// refs array (seg is immutable), the rest still in canonical order, over
// the blocks that still earn their keep. Like a merge's survivor it has no
// durable file yet and names seg's — with seg's own pending replacements —
// as replaced.
func (h *history) without(seg ckptSegment, drop []int) ckptSegment {
	rest := ckptSegment{blocks: seg.blocks, refs: make([]trace.RecordRef, 0, len(seg.refs)-len(drop))}
	from := 0
	for _, i := range drop {
		rest.refs = append(rest.refs, seg.refs[from:i]...)
		from = i + 1
	}
	rest.refs = append(rest.refs, seg.refs[from:]...)
	h.compactBlocks(&rest)
	rest.replaced = slices.Clip(seg.replaced)
	if seg.fileID != 0 {
		rest.replaced = append(rest.replaced, seg.fileID)
	}
	return rest
}

// compactBlocks restores, on a segment under construction (its refs array
// is still private), the rule that bounds what is resident by what is
// referenced: a block fewer than half of whose records the segment still
// references gives them up — gathered, in segment order and with the other
// sparse blocks', into one new fully referenced block — and leaves; one no
// reference reaches just leaves. Blocks at least half referenced stay as
// they are, so resident bytes stay within twice the referenced ones and a
// record is re-gathered only after as many of its block's have left.
func (h *history) compactBlocks(seg *ckptSegment) {
	used := make([]int, len(seg.blocks))
	for _, r := range seg.refs {
		used[r.Block]++
	}
	to := make([]int, len(seg.blocks)) // a kept block's new index; -1: sparse
	var kept []heldBlock
	for b := range seg.blocks {
		if to[b] = -1; 2*used[b] >= seg.blocks[b].Len() {
			to[b] = len(kept)
			kept = append(kept, seg.blocks[b])
		}
	}
	if len(kept) == len(seg.blocks) {
		return
	}
	var moved []trace.RecordRef
	for i, r := range seg.refs {
		if to[r.Block] < 0 {
			seg.refs[i] = trace.RecordRef{Block: uint32(len(kept)), Record: uint32(len(moved))}
			moved = append(moved, r)
		} else {
			seg.refs[i].Block = uint32(to[r.Block])
		}
	}
	if len(moved) > 0 { // out of the blocks as they stood: seg.blocks changes below
		kept = append(kept, h.hold(func(buf []byte) []byte { return trace.GatherSpanBlock(buf, seg.spanBlocks(), moved) }))
	}
	seg.blocks = kept
}

// gallop returns the least k in [0, n) at which the monotone stop holds, or
// n when it never does, in O(log k) probes: doubling steps, then a binary
// search of the last step.
func gallop(n int, stop func(k int) bool) int {
	lo, step := 0, 1 // stop fails everywhere before lo
	for lo+step <= n && !stop(lo+step-1) {
		lo, step = lo+step, 2*step
	}
	return lo + sort.Search(min(step-1, n-lo), func(k int) bool { return stop(lo + k) })
}

// extract takes the folded spans sel picks — ascending indexes into one
// segment's refs — out of the ladder and returns them decoded, each with its
// owned bit, for the resolver to make live again: only the hits are decoded,
// gathered into a block of their own first so the spans share nothing with
// the blocks they leave. The cost is the records sel reads plus the segments
// it touches: a touched segment is replaced by its remainder, an emptied one
// leaves the ladder (its files deletable once a WAL rotation covers the
// spans), an untouched one is not looked at again.
func (h *history) extract(sel func(seg *ckptSegment) []int) (out []folded) {
	ladder, tookMaxEnd := h.segs[:0], false
	for _, seg := range h.segs {
		hits := sel(&seg)
		if len(hits) > 0 {
			picked := make([]trace.RecordRef, len(hits))
			for k, i := range hits {
				picked[k] = seg.refs[i]
				blk, r := seg.at(i)
				tookMaxEnd = tookMaxEnd || blk.End(r) == h.maxEnd
			}
			spans, owned, _, err := trace.DecodeSpanBlock(trace.GatherSpanBlock(nil, seg.spanBlocks(), picked))
			if err != nil {
				panic(err) // gathered from validated blocks
			}
			for k, s := range spans {
				out = append(out, folded{s, ownedBits(owned).has(k)})
			}
			if seg = h.without(seg, hits); len(seg.refs) == 0 {
				h.stale = append(h.stale, seg.replaced...)
				continue
			}
		}
		ladder = append(ladder, seg)
	}
	clear(h.segs[len(ladder):])
	h.segs = ladder
	h.spans -= len(out)
	if tookMaxEnd { // else some span left behind still ends there
		h.maxEnd = 0
		for i := range h.segs {
			seg := &h.segs[i]
			for k := range seg.refs {
				blk, r := seg.at(k)
				h.maxEnd = max(h.maxEnd, blk.End(r))
			}
		}
	}
	return out
}

// extractOverlapping takes out every folded span overlapping one of the
// windows, which ascend by lo and do not overlap each other.
func (h *history) extractOverlapping(windows []window) []folded {
	return h.extract(func(seg *ckptSegment) (hits []int) {
		// Segment and windows both ascend by begin: one pass over the
		// records, done at the first span past the last window. (A
		// malformed window, hi < lo, selects as [lo, lo]: a superset.)
		k := 0
		for i := range seg.refs {
			blk, r := seg.at(i)
			begin := blk.Begin(r)
			for k < len(windows) && max(windows[k].lo, windows[k].hi) < begin {
				k++
			}
			if k == len(windows) {
				break
			}
			if blk.End(r) >= windows[k].lo {
				hits = append(hits, i)
			}
		}
		return hits
	})
}

// movedLaunches is the launches a repair gave a new parent, by correlation
// id, and the one test for the execs that parent must still reach: the
// repair applies it to the live released runs, extractExecs to the folded
// records.
type movedLaunches struct {
	parent map[uint64]uint64
	// Tracers mint correlation ids in order, so the moved launches' ids span
	// a narrow range: most spans are done at one comparison.
	minCorr, maxCorr uint64
	buckets          []uint64 // the ids' corrBucket values, sorted: what a heldBlock's execCorr is matched against
}

func newMovedLaunches(parent map[uint64]uint64) movedLaunches {
	m := movedLaunches{parent: parent, minCorr: math.MaxUint64}
	for corr := range parent {
		m.minCorr, m.maxCorr = min(m.minCorr, corr), max(m.maxCorr, corr)
		m.buckets = append(m.buckets, corrBucket(corr))
	}
	slices.Sort(m.buckets)
	m.buckets = slices.Compact(m.buckets)
	return m
}

// newParent returns the parent a span of this kind and correlation id,
// holding this parent and owned by the correlator, must take from its moved
// launch: zero unless it is an execution span whose launch moved to a parent
// other than the one it holds.
func (m movedLaunches) newParent(kind trace.Kind, corr, parent uint64) uint64 {
	if corr >= m.minCorr && corr <= m.maxCorr && kind == trace.KindExec {
		if pid := m.parent[corr]; pid != parent {
			return pid
		}
	}
	return 0
}

// mayHold reports whether the block may hold an execution span of one of the
// moved launches: whether the two sorted bucket sets meet. One pass over the
// block's set, each of its buckets looked for in what is left of the moved.
func (m movedLaunches) mayHold(blk *heldBlock) bool {
	rest := m.buckets
	for _, b := range blk.execCorr {
		at, ok := slices.BinarySearch(rest, b)
		if rest = rest[at:]; ok || len(rest) == 0 {
			return ok
		}
	}
	return false
}

// extractExecs takes out the owned execution spans a moved launch's new
// parent must still reach. It reads the records of the blocks whose
// correlation-id buckets meet the moved launches' and passes over the rest:
// a repair that moved launches nothing folded hangs on costs a few
// comparisons per block — O(folds), see heldBlock — and one that finds such
// a block costs a pass over its segment's references besides.
func (h *history) extractExecs(moved movedLaunches) []folded {
	return h.extract(func(seg *ckptSegment) (hits []int) {
		match, some := make([]bool, len(seg.blocks)), false
		for b := range seg.blocks {
			match[b] = moved.mayHold(&seg.blocks[b])
			some = some || match[b]
		}
		if !some {
			return nil
		}
		for i, ref := range seg.refs {
			if blk, r := seg.at(i); match[ref.Block] && moved.newParent(blk.Kind(r), blk.CorrelationID(r), blk.ParentID(r)) != 0 && blk.Owned(r) {
				hits = append(hits, i)
			}
		}
		return hits
	})
}
