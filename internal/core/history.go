package core

import (
	"bytes"
	"cmp"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"xsp/internal/segio"
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
// span block. Where that block lives depends on whether the segment has a
// file. A segment without one — every segment in RAM mode, a fresh fold or a
// compaction survivor a durable stream has not written yet, everything after
// a store error — is resident: its blocks (what a fold encoded, once) and an
// ordered list of runs of their records, each a stretch of one block — folds
// of successive stretches of the stream merge into about one run per block —
// so what is resident per folded span is the codec's size and holds no
// pointer the collector has to follow. A segment whose file is written is
// filed: it keeps the file's layout and string blob and reads its records
// from the file a window at a time, each window a validated trace.SpanBlock —
// so what is resident per durable folded span is a fraction of a byte, and
// the file holds the rest. Both kinds are read one way: a cursor over the
// runs (see cursor), and beside every block, resident or filed, one
// directory of its windows of records (fileWindow) — built once, when the
// block is held or its file is written, and carried by a fresh fold's block
// into its file — through which a repair steps over the windows it rules out
// without reading them. The ladder's work — compaction, extraction,
// remainders — compares keys read from the records and moves runs of records
// or streams records into a new block or file, never decoding; and a span is
// decoded only when somebody reads it, into copies the history keeps no hold
// on. The resolver adds folds, takes back what a straggler's windows overlap,
// reads the segments merged with its live tail, and persists; the zero
// history is empty.
//
// The correlator's mutex guards the ladder — the list of segments and the
// counters — like everything the resolver holds. The segments themselves,
// the blocks and the files behind them are immutable, replaced and never
// edited, so a reader holds the mutex only to pin the list — copy it, and
// hold every file in it open — and walks what it pinned after letting go
// (see StreamCorrelator.View and pinned.walk). A file a compaction deletes
// stays readable through the handle until the last pin on it is released.
type history struct {
	segs        []ckptSegment // geometric compaction merges by size, so segments carry no time order
	spans       int           // folded spans, over all segments
	maxEnd      vclock.Time   // latest End among them
	compactions int           // segment merges performed by the geometric schedule
	stale       []uint64      // segment files a reopen emptied; deletable after the next WAL rotation covers their spans
	enc         []byte        // where hold encodes a block before keeping its exact-size copy; empty between holds
	lent        bool          // a block hold lent is enc itself, until its file is written (see keepLent)
}

// ckptSegment is one immutable sequence of n finalized spans in canonical
// order, and a record's flag byte holds the owned bit a reopen (a straggler
// reaching behind the checkpoint horizon) restores the span's ownership
// from. runs names its records in order: resident, records of the segment's
// own blocks; filed, records of its file (block 0) — one run when the
// segment is all of the file, more for a repair's remainder until its own
// file is written. Immutable means replaced, never edited: a merge or a
// reopen builds a new segment over fresh runs and a fresh list of the same
// blocks, or writes a new file. No two segments share a block, and every
// block is referenced by at least half its records (see compactBlocks): one
// no run reaches leaves with the segment that dropped it.
type ckptSegment struct {
	blocks []heldBlock
	file   *segFile
	runs   []refRun
	n      int

	// parts is a compaction survivor compact planned and the durable step
	// has yet to build: its inputs, in merge order. None outlives that step.
	parts []ckptSegment

	// fileID is the segment's durable file id (0: not yet on disk);
	// replaced lists the file ids this segment supersedes — a compaction
	// merge's inputs, or the file a reopen left this remainder of — deleted
	// when this segment's own file is published.
	fileID   uint64
	replaced []uint64
}

// segFile is a segment file the history reads records from: the open file,
// and its directory, as a heldBlock's over the file's records. It is
// shared by the ladder entry that holds it and every view that pinned it,
// and closed when the last of them lets go (unref).
type segFile struct {
	*segio.SegmentFile
	dir  []fileWindow
	refs atomic.Int32
}

// fileWindow is what a directory keeps of one window of windowRecords
// records of a block or a file: what lets a repair pass over the window
// without reading it.
type fileWindow struct {
	first, maxEnd vclock.Time // the first record's begin, the latest end
	// execCorr is the sorted set of corrBucket values over the window's owned
	// execution spans with a correlation id: one entry per 64 of them where a
	// tracer mints the ids densely and in order, up to one per span where it
	// does not. A block is one fold — one stretch of the stream — so a moved
	// launch's bucket is in almost no window's, and a repair that moved a
	// launch pays here a comparison per window, not a read.
	execCorr []uint64
}

// windowRecords is how many records a directory entry covers, and one read
// of a file brings in: ~64 KB of them, whatever the segment's size.
const windowRecords = 64 << 10 / trace.SpanRecordSize

// newSegFile wraps an opened segment file, the ladder its one holder.
func newSegFile(f *segio.SegmentFile, dir []fileWindow) *segFile {
	sf := &segFile{SegmentFile: f, dir: dir}
	sf.refs.Store(1)
	return sf
}

// detach readies a file leaving the ladder for the removal of its name: a
// view still pinning it must keep reading it (segio.SegmentFile.Keep).
// Callers hold the correlator's mutex, under which pins are taken.
func (f *segFile) detach() {
	if f.refs.Load() > 1 {
		f.Keep() // a failure surfaces as the pinned view's read error
	}
}

// unref lets go of one holder's hold, and closes the file with the last.
func (f *segFile) unref() {
	if f.refs.Add(-1) == 0 {
		f.Close()
	}
}

// retire is the ladder letting go of a file: detached, then unreferenced.
func (f *segFile) retire() {
	f.detach()
	f.unref()
}

// dirBuilder builds a directory from a block's or a file's records, in
// their order. The open window's buckets collect in one scratch array, kept
// exact-size by each window as it closes.
type dirBuilder struct {
	dir  []fileWindow
	n    int
	exec []uint64
}

func (d *dirBuilder) add(blk *trace.SpanBlock, i int) {
	if d.n%windowRecords == 0 {
		d.seal()
		d.dir = append(d.dir, fileWindow{first: blk.Begin(i)})
	}
	w := &d.dir[len(d.dir)-1]
	w.maxEnd = max(w.maxEnd, blk.End(i))
	d.exec = addExecBucket(d.exec, blk, i)
	d.n++
}

// seal closes the open window, if any.
func (d *dirBuilder) seal() {
	if len(d.dir) > 0 {
		d.dir[len(d.dir)-1].execCorr = sealBuckets(d.exec)
		d.exec = d.exec[:0]
	}
}

func (d *dirBuilder) done() []fileWindow {
	d.seal()
	return slices.Clip(d.dir)
}

// refRun names consecutive records of one block, from first on: the
// segment's spans from position at up to where the next run starts (the
// last run, up to the segment's end).
type refRun struct{ at, block, first uint32 }

// len returns the number of spans in the segment.
func (seg *ckptSegment) len() int {
	if seg.parts != nil {
		n := 0
		for k := range seg.parts {
			n += seg.parts[k].len()
		}
		return n
	}
	return seg.n
}

// runLen returns the number of spans run k names.
func (seg *ckptSegment) runLen(k int) int {
	if k+1 < len(seg.runs) {
		return int(seg.runs[k+1].at - seg.runs[k].at)
	}
	return seg.n - int(seg.runs[k].at)
}

// runAt returns the index of the run that holds span i: a binary search,
// for a reader that does not walk the runs in order (see cursor).
func (seg *ckptSegment) runAt(i int) int {
	return sort.Search(len(seg.runs), func(k int) bool { return int(seg.runs[k].at) > i }) - 1
}

// appendRun appends n records of block from first on, extending the last
// run when they continue it.
func (seg *ckptSegment) appendRun(block, first uint32, n int) {
	if k := len(seg.runs) - 1; k >= 0 && seg.runs[k].block == block && int(seg.runs[k].first)+seg.n-int(seg.runs[k].at) == int(first) {
		seg.n += n
		return
	}
	seg.runs = append(seg.runs, refRun{at: uint32(seg.n), block: block, first: first})
	seg.n += n
}

// appendSpans appends src's spans at positions [lo, hi), their blocks moved
// up by shift: where src's blocks start in seg's list.
func (seg *ckptSegment) appendSpans(src *ckptSegment, lo, hi int, shift uint32) {
	for k := src.runAt(lo); lo < hi; k++ {
		r := src.runs[k]
		n := min(int(r.at)+src.runLen(k), hi) - lo
		seg.appendRun(r.block+shift, r.first+uint32(lo)-r.at, n)
		lo += n
	}
}

// cursor reads a segment's spans in order, resident or filed, stepping
// through its runs: a filed one a window at a time, the windows its pass
// reads, its first read error kept. A window's bytes are the next one's: a
// record it hands out is good until it moves past that record's window. It
// is the one place that tells the two kinds apart (record, window).
type cursor struct {
	seg  *ckptSegment
	n    int // the segment's spans
	pos  int // moves only forward
	run  int // the run pos was last found in
	pass io.ReaderAt
	win  *trace.SpanBlock // a fresh one per window: readers may tell windows apart by it
	lo   int              // the file record win starts at
	buf  []byte           // the windows' array
	err  error
}

func newCursor(seg *ckptSegment) cursor { return cursor{seg: seg, n: seg.len()} }

// ref returns the block and record the span at pos (< n) is.
func (c *cursor) ref() (block, record int) {
	runs := c.seg.runs
	for c.run+1 < len(runs) && int(runs[c.run+1].at) <= c.pos {
		c.run++
	}
	r := runs[c.run]
	return int(r.block), int(r.first) + c.pos - int(r.at)
}

// record returns the block and record index of the span at pos: false past
// the end, or on a read error (c.err).
func (c *cursor) record() (*trace.SpanBlock, int, bool) {
	seg := c.seg
	if c.err != nil || c.pos >= c.n {
		return nil, 0, false
	}
	b, r := c.ref()
	if seg.file == nil {
		return &seg.blocks[b].SpanBlock, r, true
	}
	if c.win == nil || r < c.lo || r >= c.lo+c.win.Len() {
		if c.pass == nil {
			c.pass = seg.file.Pass()
		}
		lo := r / windowRecords * windowRecords
		win, buf, err := seg.file.Window(c.pass, lo, min(lo+windowRecords, seg.file.Len()), c.buf)
		if c.buf = buf; err != nil {
			c.err = err
			return nil, 0, false
		}
		c.win, c.lo = &win, lo
	}
	return c.win, r - c.lo, true
}

// window returns the directory entry of the window that holds the span at
// pos (< n) — its block's, or its file's — and next, where the run through
// pos leaves that window: a step over the window is c.pos = next.
func (c *cursor) window() (w *fileWindow, next int) {
	b, r := c.ref()
	var dir []fileWindow
	if f := c.seg.file; f != nil {
		dir = f.dir
	} else {
		dir = c.seg.blocks[b].dir
	}
	k := r / windowRecords
	end := int(c.seg.runs[c.run].at) + c.seg.runLen(c.run)
	return &dir[k], min(c.pos+(k+1)*windowRecords-r, end)
}

// each hands fn the segment's spans in order, as records, until fn returns
// false, and returns the read error that cut it short.
func (seg *ckptSegment) each(fn func(blk *trace.SpanBlock, i int) bool) error {
	c := newCursor(seg)
	for {
		blk, r, ok := c.record()
		if !ok || !fn(blk, r) {
			return c.err
		}
		c.pos++
	}
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

// heldBlock is a span block the history holds, with its directory: the one
// a filed segment keeps of its file, over the block's records — what a
// repair asks of each window of them before reading it. A fresh fold's file
// is its block as it is, and takes the block's directory with it (see
// history.write). Blocks are never merged, so what the directories weigh
// grows with the folded records, a fraction of a byte each.
type heldBlock struct {
	trace.SpanBlock
	dir []fileWindow
}

// corrBucket coarsens a correlation id to the granularity execCorr keeps.
func corrBucket(corr uint64) uint64 { return corr >> 6 }

// addExecBucket adds record i's bucket to set when it is an owned execution
// span with a correlation id. Ids minted in order repeat a bucket 64 times
// running: a run is collected once.
func addExecBucket(set []uint64, blk *trace.SpanBlock, i int) []uint64 {
	if c := blk.CorrelationID(i); c != 0 && blk.Kind(i) == trace.KindExec && blk.Owned(i) {
		if k, n := corrBucket(c), len(set); n == 0 || set[n-1] != k {
			set = append(set, k)
		}
	}
	return set
}

// sealBuckets sorts a collected bucket set and keeps it, deduplicated, in
// an exact-size array of its own — nil when empty: nothing of the scratch it
// was collected in.
func sealBuckets(set []uint64) []uint64 {
	slices.Sort(set)
	if set = slices.Compact(set); len(set) == 0 {
		return nil
	}
	return slices.Clone(set)
}

// hold runs encode into the history's scratch and returns the block it
// appended, parsed: a private, exact-size copy — one allocation, and a
// stream in steady state makes no other for it — or, lent, the scratch
// itself, for a fold whose file is written before the correlator's mutex is
// let go (keepLent copies it out if that write fails).
func (h *history) hold(encode func(buf []byte) []byte, lend bool) heldBlock {
	buf := encode(h.enc[:0])
	scratch := cap(buf) <= maxEncodeScratch
	if scratch {
		h.enc = buf[:0]
	}
	if lend {
		h.lent = scratch
	} else {
		buf = bytes.Clone(buf)
	}
	blk, _, err := trace.ParseSpanBlock(buf)
	if err != nil {
		panic(err) // the encoder's own output
	}
	dir := dirBuilder{dir: make([]fileWindow, 0, (blk.Len()+windowRecords-1)/windowRecords)}
	for i := range blk.Len() {
		dir.add(&blk, i)
	}
	return heldBlock{SpanBlock: blk, dir: dir.done()}
}

// keepLent gives the block hold lent its own copy if it is still
// resident — a store error kept its file from being written — so that
// neither the next hold nor a view pinning it shares the scratch with it.
func (h *history) keepLent() {
	if !h.lent {
		return
	}
	h.lent = false
	for i := range h.segs {
		for b := range h.segs[i].blocks {
			if blk := &h.segs[i].blocks[b]; &blk.Bytes()[0] == &h.enc[:1][0] {
				blk.SpanBlock, _, _ = trace.ParseSpanBlock(bytes.Clone(blk.Bytes()))
			}
		}
	}
}

// segmentOf returns the segment that is all of blk — one run, from record 0
// — whose records the caller knows to be in canonical order.
func segmentOf(blk heldBlock) ckptSegment {
	return ckptSegment{blocks: []heldBlock{blk}, runs: make([]refRun, min(blk.Len(), 1)), n: blk.Len()}
}

// at returns the block and the record index of a resident segment's span i.
func (seg *ckptSegment) at(i int) (*heldBlock, int) {
	c := cursor{seg: seg, pos: i, run: seg.runAt(i)}
	b, r := c.ref()
	return &seg.blocks[b], r
}

// push appends a segment to the ladder and counts its spans in.
func (h *history) push(seg ckptSegment) {
	h.segs = append(h.segs, seg)
	h.spans += seg.len()
	h.maxEnd = max(h.maxEnd, seg.maxEnd())
}

// maxEnd is the latest End among the segment's spans, read from the
// directory of every window its runs reach: for a remainder, the latest
// among those windows' records, which bounds it.
func (seg *ckptSegment) maxEnd() (end vclock.Time) {
	for c := newCursor(seg); c.pos < c.n; {
		var w *fileWindow
		w, c.pos = c.window()
		end = max(end, w.maxEnd)
	}
	return end
}

// add folds spans — in canonical order, owned telling each one's bit, kept
// so a reopen can restore their ownership exactly — into a new block, one
// encode, and a new segment that is all of it, and plans the size ladder
// back into shape. lend leaves the block in the encoder's scratch, for a
// fold whose file the durable step writes next (see keepLent).
func (h *history) add(spans []*trace.Span, owned func(i int) bool, lend bool) {
	h.push(segmentOf(h.hold(func(buf []byte) []byte { return trace.AppendSpanBlock(buf, spans, owned) }, lend)))

	// Keep the segment count in check so a snapshot's k-way merge stays
	// shallow — geometrically, so a day-long stream amortizes O(log n)
	// merge work per span instead of re-merging everything periodically.
	h.compact()
}

// install adds a recovered segment file to the ladder, filed: one pass over
// its records builds its directory, hands kept each record that stays, and
// leaves out the ones covered says the WAL won — a file left empty is
// stale, one left with fewer records a remainder to rewrite.
func (h *history) install(f *segio.SegmentFile, covered func(blk *trace.SpanBlock, i int) bool, kept func(blk *trace.SpanBlock, i int)) error {
	sf := newSegFile(f, nil)
	seg := filedSegment(sf, f.ID())
	var dir dirBuilder
	var drop []int
	if err := seg.each(func(blk *trace.SpanBlock, r int) bool {
		if dir.add(blk, r); covered(blk, r) {
			drop = append(drop, dir.n-1)
		} else {
			kept(blk, r)
		}
		return true
	}); err != nil {
		sf.unref()
		return err
	}
	sf.dir = dir.done()
	if len(drop) > 0 {
		if seg = h.without(seg, drop); seg.len() == 0 {
			h.stale = append(h.stale, seg.replaced...)
			sf.retire()
			return nil
		}
	}
	h.push(seg)
	return nil
}

// release lets go of every file the ladder holds: the stream is reset or
// closed.
func (h *history) release() {
	for i := range h.segs {
		if f := h.segs[i].file; f != nil {
			f.retire()
		}
	}
}

// reaches reports whether some folded span ends at or after t: whether a
// repair window opening at t has anything to take back.
func (h *history) reaches(t vclock.Time) bool { return h.spans > 0 && h.maxEnd >= t }

// pinned is one read of a stream: the history's segment list and the live
// tail as the read took them under the correlator's mutex — immutable
// segments, every file among them held open, and one canonically ordered
// run of live spans nobody else holds — walked as often as the reader needs
// after the mutex is released.
type pinned struct {
	segs []ckptSegment
	live []*trace.Span
	fail func(error) // latches a read error where the stream reports it; nil: nobody
	err  error       // what cut the last walk short
	once sync.Once
}

// walk is the one merge every read goes through (see merge); a read error
// ends it, and is kept and latched.
func (p *pinned) walk(yield func(blk *trace.SpanBlock, i int, s *trace.Span) bool) {
	if p.err = merge(p.segs, p.live, yield); p.err != nil && p.fail != nil {
		p.fail(p.err)
	}
}

func (p *pinned) error() error { return p.err }

// release lets go of the pinned files, once.
func (p *pinned) release() {
	p.once.Do(func() {
		for i := range p.segs {
			if f := p.segs[i].file; f != nil {
				f.unref()
			}
		}
	})
}

// merge is a k-way merge of the segments' records and the live run into
// canonical order, handing yield a folded span as its record — nothing is
// decoded — and a live span as itself. Equal keys (duplicate span ids)
// break toward the segments, in the order given, then the live run:
// trace.MergeRuns' tie-break over the runs in that order. A read error ends
// it and is returned.
func merge(segs []ckptSegment, live []*trace.Span, yield func(blk *trace.SpanBlock, i int, s *trace.Span) bool) error {
	// A head is a run's next span, its key read once: run len(segs) is the
	// live run.
	type head struct {
		begin    vclock.Time
		level    trace.Level
		id       uint64
		run, pos int
		blk      *trace.SpanBlock
		r        int
	}
	curs := make([]cursor, len(segs))
	load := func(h *head) bool {
		if h.run < len(segs) {
			blk, r, ok := curs[h.run].record()
			if !ok {
				return false
			}
			h.blk, h.r = blk, r
			h.begin, h.level, h.id = blk.Begin(r), blk.Level(r), blk.ID(r)
			return true
		}
		if h.pos == len(live) {
			return false
		}
		s := live[h.pos]
		h.begin, h.level, h.id = s.Begin, s.Level, s.ID
		return true
	}
	failed := func() error {
		for k := range curs {
			if curs[k].err != nil {
				return curs[k].err
			}
		}
		return nil
	}
	var heads []head // in run order, so the first least head wins a tie
	for run := 0; run <= len(segs); run++ {
		if run < len(segs) {
			curs[run] = newCursor(&segs[run])
		}
		if h := (head{run: run}); load(&h) {
			heads = append(heads, h)
		}
	}
	if err := failed(); err != nil {
		return err
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
		if h.run < len(segs) {
			more = yield(h.blk, h.r, nil)
			curs[h.run].pos++
		} else {
			more = yield(nil, 0, live[h.pos])
			h.pos++
		}
		if !more {
			return nil
		}
		if !load(h) {
			if err := failed(); err != nil {
				return err
			}
			heads = slices.Delete(heads, least, least+1)
		}
	}
	return nil
}

// write writes a segment file for every checkpoint segment that pick
// selects and that has none yet — a fresh fold from its block as it is, any
// other by one streaming merge of its inputs (writeMerged) — handing each
// its own replaced-file list, so a crash between two writes can
// never have deleted an input whose merged survivor is not yet on disk. A
// written segment is filed: its blocks and runs go, the file holds them. The
// first error ends it. Only the durable step calls it (see
// StreamCorrelator.commit).
func (h *history) write(store SegmentStore, pick func(seg *ckptSegment) bool) error {
	for i := range h.segs {
		seg := &h.segs[i]
		if seg.fileID != 0 || !pick(seg) {
			continue
		}
		var filed ckptSegment
		var err error
		if len(seg.blocks) == 1 && len(seg.runs) <= 1 && seg.n == seg.blocks[0].Len() {
			// A fresh fold, one run over all of its block's records: the
			// block is the file's payload, as it is, and its directory the
			// file's.
			blk := &seg.blocks[0]
			var id uint64
			if id, err = store.WriteSegment(blk.Bytes(), seg.replaced); err == nil {
				filed, err = openFiled(store, id, blk.dir)
			}
		} else {
			parts := seg.inputs()
			if filed, err = writeMerged(store, parts); err == nil {
				h.compactions += len(parts) - 1
			}
		}
		if err != nil {
			return err
		}
		*seg = filed
	}
	return nil
}

// trims reports whether writing the segment deletes spans from disk: a
// remainder's file leaves out what a reopen took back live from the file it
// replaces, and so does a survivor built from one. Every other segment's
// write only adds spans to disk: a resident segment replaces no file, and a
// survivor replaces only its inputs', whose spans it holds.
func (seg *ckptSegment) trims() bool {
	if seg.parts != nil {
		return slices.ContainsFunc(seg.parts, func(p ckptSegment) bool { return p.trims() })
	}
	return seg.file != nil && seg.fileID == 0
}

// dissolve puts every compaction survivor not written back as its inputs:
// a filed input merges only into a file, which no write has made — none was
// armed, recovery's replay or a latched error, or it failed. The next
// compaction with a store armed plans the merge again.
func (h *history) dissolve() {
	if !slices.ContainsFunc(h.segs, func(seg ckptSegment) bool { return seg.parts != nil }) {
		return
	}
	ladder := make([]ckptSegment, 0, len(h.segs))
	for i := range h.segs {
		ladder = append(ladder, h.segs[i].inputs()...)
	}
	h.segs = ladder
}

// openFiled opens the segment file just written as id, and returns the
// filed segment that is all of it.
func openFiled(store SegmentStore, id uint64, dir []fileWindow) (ckptSegment, error) {
	f, err := store.OpenSegment(id)
	if err != nil {
		return ckptSegment{}, err
	}
	return filedSegment(newSegFile(f, dir), id), nil
}

// filedSegment returns the segment that is all of f — one run, as
// segmentOf's — written as id.
func filedSegment(f *segFile, id uint64) ckptSegment {
	return ckptSegment{file: f, fileID: id, runs: make([]refRun, min(f.Len(), 1)), n: f.Len()}
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
//
// Two resident segments merge as they pair up, in memory (mergeSegments). A
// pair with a filed input is only planned, on sizes alone: a survivor whose
// parts are its inputs, built once from all of them by the durable step,
// which writes it to its file by one streaming merge however many merges
// made it (see history.write) or dissolves it back into them.
func (h *history) compact() {
	// order lists the segments by size, equal sizes by position, and stays
	// sorted across the merges below.
	bySize := func(a, b int) int {
		return cmp.Or(cmp.Compare(h.segs[a].len(), h.segs[b].len()), cmp.Compare(a, b))
	}
	order := make([]int, len(h.segs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, bySize)
	for {
		pair := -1
		for i := 0; i+1 < len(order); i++ {
			if 2*h.segs[order[i]].len() >= h.segs[order[i+1]].len() {
				pair = i
				break
			}
		}
		if pair < 0 {
			break // the doubling ladder holds everywhere
		}
		lo, hi := min(order[pair], order[pair+1]), max(order[pair], order[pair+1])
		if a, b := &h.segs[lo], &h.segs[hi]; a.resident() && b.resident() {
			h.segs[lo] = mergeSegments(*a, *b)
			h.compactions++
		} else {
			h.segs[lo] = ckptSegment{parts: slices.Concat(a.inputs(), b.inputs())}
		}
		h.segs = slices.Delete(h.segs, hi, hi+1)

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

// resident reports whether the segment is its blocks and runs.
func (seg *ckptSegment) resident() bool { return seg.file == nil && seg.parts == nil }

// inputs is what a survivor built from seg is built from.
func (seg *ckptSegment) inputs() []ckptSegment {
	if seg.parts != nil {
		return seg.parts
	}
	return []ckptSegment{*seg}
}

// writeMerged writes the segment built from parts as a new segment file:
// one streaming k-way merge of their records — ties toward the earlier
// input, as mergeSegments breaks them — read from where they lie, resident
// blocks or files, never gathered into one buffer, and walked once: each
// record goes to the file, and into its directory, as the merge hands it
// out. The file replaces the inputs' files and their pending replacements,
// in input order; the inputs' files stay readable through the write and are
// let go of once it is done. It returns the filed segment that is all of the
// file.
func writeMerged(store SegmentStore, parts []ckptSegment) (ckptSegment, error) {
	var replaced []uint64
	var leaving []*segFile
	for k := range parts {
		replaced = append(replaced, parts[k].replaced...)
		if parts[k].fileID != 0 {
			replaced = append(replaced, parts[k].fileID)
		}
		if f := parts[k].file; f != nil {
			f.detach()
			leaving = append(leaving, f)
		}
	}
	var dir dirBuilder
	id, err := store.WriteGathered((&ckptSegment{parts: parts}).len(), func(yield func(blk *trace.SpanBlock, i int) bool) error {
		return merge(parts, nil, func(blk *trace.SpanBlock, i int, _ *trace.Span) bool {
			dir.add(blk, i)
			return yield(blk, i)
		})
	}, replaced)
	if err != nil {
		return ckptSegment{}, err
	}
	filed, err := openFiled(store, id, dir.done())
	if err != nil {
		return ckptSegment{}, err
	}
	for _, f := range leaving {
		f.unref()
	}
	return filed, nil
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
// trace.MergeRuns breaks them — that moves runs of records and reads keys
// from the records; the blocks, a's then b's, are carried as they are, the
// owned bits inside them. The merged segment has no durable file yet; it
// inherits the inputs' files (and their own pending replacements) as its
// replaced list, so they are deleted only once the merged file is on disk.
func mergeSegments(a, b ckptSegment) ckptSegment {
	seg := ckptSegment{
		blocks: slices.Concat(a.blocks, b.blocks),
		runs:   make([]refRun, 0, len(a.runs)+len(b.runs)),
	}
	// Segments fold from successive stretches of the stream, so the merge
	// is mostly long runs from one side: gallop to the end of each run
	// rather than compare span by span.
	shift := uint32(len(a.blocks))
	i, j := 0, 0
	for i < a.n && j < b.n {
		end := i + gallop(a.n-i, func(k int) bool { return b.less(j, &a, i+k) })
		seg.appendSpans(&a, i, end, 0)
		if i = end; i < a.n {
			end = j + gallop(b.n-j, func(k int) bool { return !b.less(j+k, &a, i) })
			seg.appendSpans(&b, j, end, shift)
			j = end
		}
	}
	seg.appendSpans(&a, i, a.n, 0)
	seg.appendSpans(&b, j, b.n, shift)
	for _, in := range [2]ckptSegment{a, b} {
		seg.replaced = append(seg.replaced, in.replaced...)
		if in.fileID != 0 {
			seg.replaced = append(seg.replaced, in.fileID)
		}
	}
	return seg
}

// without returns seg less the spans at the ascending indexes drop: fresh
// runs (seg is immutable), cut where the dropped spans were, the rest still
// in canonical order — over the blocks that still earn their keep, or over
// seg's file, which the remainder holds until its own is written. Like a
// merge's survivor it has no durable file yet and names seg's — with seg's
// own pending replacements — as replaced.
func (h *history) without(seg ckptSegment, drop []int) ckptSegment {
	rest := ckptSegment{blocks: seg.blocks, file: seg.file, runs: make([]refRun, 0, len(seg.runs)+1)}
	from := 0
	for _, i := range drop {
		rest.appendSpans(&seg, from, i, 0)
		from = i + 1
	}
	rest.appendSpans(&seg, from, seg.n, 0)
	if seg.file == nil {
		h.compactBlocks(&rest)
	}
	rest.replaced = slices.Clip(seg.replaced)
	if seg.fileID != 0 {
		rest.replaced = append(rest.replaced, seg.fileID)
	}
	return rest
}

// compactBlocks restores, on a segment under construction (its runs are
// still private), the rule that bounds what is resident by what is
// referenced: a block fewer than half of whose records the runs still name
// gives them up — gathered, in segment order and with the other sparse
// blocks', into one new fully referenced block — and leaves; one no run
// reaches just leaves. Blocks at least half referenced stay as they are, so
// resident bytes stay within twice the referenced ones and a record is
// re-gathered only after as many of its block's have left.
func (h *history) compactBlocks(seg *ckptSegment) {
	used := make([]int, len(seg.blocks))
	for k, r := range seg.runs {
		used[r.block] += seg.runLen(k)
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
	// The runs are remapped run by run, and the sparse blocks' runs become
	// the segment moved, which the gather walks whole.
	old := *seg
	moved := ckptSegment{blocks: old.blocks}
	seg.runs, seg.n = make([]refRun, 0, len(old.runs)), 0
	for k, r := range old.runs {
		n := old.runLen(k)
		if to[r.block] >= 0 {
			seg.appendRun(uint32(to[r.block]), r.first, n)
			continue
		}
		seg.appendRun(uint32(len(kept)), uint32(moved.n), n)
		moved.appendRun(r.block, r.first, n)
	}
	if moved.n > 0 {
		kept = append(kept, h.hold(func(buf []byte) []byte {
			blk, _ := appendBlock(buf, moved.n, moved.each) // resident: no read to fail
			return blk
		}, false))
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

// onCut, which only tests set, is shown each segment extract cuts.
var onCut func(seg *ckptSegment)

// extract takes the folded spans sel picks — ascending indexes into one
// segment's spans — out of the ladder and returns them decoded, each with
// its owned bit, for the resolver to make live again: only the hits are
// decoded, gathered into a block of their own first so the spans share
// nothing with the blocks or files they leave. The cost is the records sel
// reads plus the segments it touches: a touched segment is replaced by its
// remainder, an emptied one leaves the ladder (its files deletable once a
// WAL rotation covers the spans), an untouched one is not looked at again.
// A segment a read error cuts short stays as it is, and the error is
// returned beside what the others gave up.
func (h *history) extract(sel func(seg *ckptSegment) ([]int, error)) (out []folded, err error) {
	ladder, tookMaxEnd := h.segs[:0], false
	for _, seg := range h.segs {
		hits, serr := sel(&seg)
		var block []byte
		if serr == nil && len(hits) > 0 {
			if onCut != nil {
				onCut(&seg)
			}
			block, serr = seg.gather(hits)
		}
		if serr != nil {
			err = cmp.Or(err, serr)
			ladder = append(ladder, seg)
			continue
		}
		if len(hits) > 0 {
			spans, owned, _, derr := trace.DecodeSpanBlock(block)
			if derr != nil {
				panic(derr) // gathered from validated blocks
			}
			for k, s := range spans {
				out = append(out, folded{s, ownedBits(owned).has(k)})
				tookMaxEnd = tookMaxEnd || s.End == h.maxEnd
			}
			if seg = h.without(seg, hits); seg.len() == 0 {
				h.stale = append(h.stale, seg.replaced...)
				if seg.file != nil {
					seg.file.retire()
				}
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
			h.maxEnd = max(h.maxEnd, h.segs[i].maxEnd())
		}
	}
	return out, err
}

// gather returns the segment's spans at the ascending indexes picks as one
// new span block, nothing decoded: read through a cursor, wherever they lie.
func (seg *ckptSegment) gather(picks []int) ([]byte, error) {
	return appendBlock(nil, len(picks), func(yield func(blk *trace.SpanBlock, i int) bool) error {
		c := newCursor(seg)
		for _, i := range picks {
			c.pos = i
			blk, r, ok := c.record()
			if !ok || !yield(blk, r) {
				return c.err
			}
		}
		return nil
	})
}

// appendBlock appends to buf the span block of the n records walk hands out,
// in that order (trace.StreamSpanBlock's), and returns walk's error. buf
// grows once for the records; the tables and blob follow them.
func appendBlock(buf []byte, n int, walk func(yield func(blk *trace.SpanBlock, i int) bool) error) ([]byte, error) {
	out := bytes.NewBuffer(slices.Grow(buf, 4+n*trace.SpanRecordSize))
	_, err := trace.StreamSpanBlock(out, n, walk)
	return out.Bytes(), err
}

// extractOverlapping takes out every folded span overlapping one of the
// windows, which ascend by lo and do not overlap each other.
func (h *history) extractOverlapping(windows []window) ([]folded, error) {
	return h.extract(func(seg *ckptSegment) ([]int, error) { return seg.overlapping(windows) })
}

// overlapping returns the ascending positions of the segment's spans that
// overlap one of the windows, which ascend by lo and do not overlap each
// other. Segment and windows both ascend by begin: one pass, done at the
// first span past the last window. (A malformed window, hi < lo, selects as
// [lo, lo]: a superset.) The directory steps over each window of records, up
// to the end of the run it is read in, whose records all end before the
// windows left open, and stops at the first that begins past the last,
// unread: the pass costs the runs and the windows, and reads the records of
// only the windows that may hold a hit.
func (seg *ckptSegment) overlapping(windows []window) (hits []int, err error) {
	last := max(windows[len(windows)-1].lo, windows[len(windows)-1].hi)
	c := newCursor(seg)
	k := 0
	for c.pos < c.n {
		w, next := c.window()
		if w.first > last {
			break
		}
		if w.maxEnd < windows[k].lo {
			c.pos = next
			continue
		}
		for ; c.pos < next; c.pos++ {
			blk, r, ok := c.record()
			if !ok {
				return nil, c.err
			}
			begin := blk.Begin(r)
			for k < len(windows) && max(windows[k].lo, windows[k].hi) < begin {
				k++
			}
			if k == len(windows) {
				return hits, nil
			}
			if blk.End(r) >= windows[k].lo {
				hits = append(hits, c.pos)
			}
		}
	}
	return hits, nil
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
	buckets          []uint64 // the ids' corrBucket values, sorted: what a fileWindow's execCorr is matched against
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

// mayHold reports whether a directory window whose execCorr is set may
// hold an execution span of one of the moved launches: whether the two
// sorted bucket sets meet. One pass over set, each of its buckets looked
// for in what is left of the moved.
func (m movedLaunches) mayHold(set []uint64) bool {
	rest := m.buckets
	for _, b := range set {
		at, ok := slices.BinarySearch(rest, b)
		if rest = rest[at:]; ok || len(rest) == 0 {
			return ok
		}
	}
	return false
}

// extractExecs takes out the owned execution spans a moved launch's new
// parent must still reach. It reads the records of the windows whose
// correlation-id buckets meet the moved launches' and steps over the rest:
// a repair that moved launches nothing folded hangs on costs a few
// comparisons per run and window, and one that finds such a window costs a
// read of its records besides.
func (h *history) extractExecs(moved movedLaunches) ([]folded, error) {
	return h.extract(func(seg *ckptSegment) (hits []int, err error) {
		c := newCursor(seg)
		for c.pos < c.n {
			w, next := c.window()
			if !moved.mayHold(w.execCorr) {
				c.pos = next
				continue
			}
			for ; c.pos < next; c.pos++ {
				blk, r, ok := c.record()
				if !ok {
					return nil, c.err
				}
				if moved.newParent(blk.Kind(r), blk.CorrelationID(r), blk.ParentID(r)) != 0 && blk.Owned(r) {
					hits = append(hits, c.pos)
				}
			}
		}
		return hits, nil
	})
}
