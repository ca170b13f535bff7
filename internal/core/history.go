package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// ownedBits is a bitset over a run of spans: bit i set means the correlator
// owns span i's parent link (the span was fed unparented). It is the form
// ownership takes wherever spans are stored by position — a checkpoint
// segment, its file, a WAL record.
type ownedBits []uint64

func newOwnedBits(n int) ownedBits { return make(ownedBits, (n+63)/64) }

func (b ownedBits) set(i int) { b[i/64] |= 1 << (i % 64) }

// has reads false past the end: a record stored without a bitset owns nothing.
func (b ownedBits) has(i int) bool { return i/64 < len(b) && b[i/64]&(1<<(i%64)) != 0 }

// history is a stream's folded past — the checkpoint ladder — and the one
// place that knows how it is laid out: immutable segments of finalized spans
// kept to a more-than-doubling size ladder, each with its owned bitset and
// its durable file. The resolver adds folds, takes back what a straggler's
// windows overlap, reads the segments merged with its live tail, and
// persists; the zero history is empty. Guarded by the correlator's mutex like everything
// the resolver holds.
type history struct {
	segs        []ckptSegment // geometric compaction merges by size, so segments carry no time order
	spans       int           // folded spans, over all segments
	maxEnd      vclock.Time   // latest End among them
	compactions int           // segment merges performed by the geometric schedule
	stale       []uint64      // segment files a reopen emptied; deletable after the next WAL rotation covers their spans
}

// ckptSegment is one immutable fold of finalized spans, in canonical
// order. The owned bitset remembers which spans the correlator owns, so a
// reopen (a straggler reaching behind the checkpoint horizon) can restore
// the ownership of the spans it takes back live. Immutable means replaced,
// never edited: a merge or a reopen builds a new segment over fresh arrays.
type ckptSegment struct {
	spans []*trace.Span
	owned ownedBits

	// fileID is the segment's durable file id (0: not yet on disk);
	// replaced lists the file ids this segment supersedes — a compaction
	// merge's inputs, or the file a reopen left this remainder of — deleted
	// when this segment's own file is published.
	fileID   uint64
	replaced []uint64
}

// folded is a span on its way out of the history, with the owned bit its
// segment held for it.
type folded struct {
	span *trace.Span
	own  bool
}

// window is a closed stretch [lo, hi] of virtual time: a cluster of
// straggler intervals whose overlap a repair re-correlates.
type window struct{ lo, hi vclock.Time }

// add folds spans — in canonical order, owned telling each one's bit, kept
// so a reopen can restore their ownership exactly — into a new segment and
// restores the size ladder.
func (h *history) add(spans []*trace.Span, owned func(*trace.Span) bool) {
	seg := ckptSegment{spans: spans, owned: newOwnedBits(len(spans))}
	for i, s := range spans {
		if owned(s) {
			seg.owned.set(i)
		}
		h.maxEnd = max(h.maxEnd, s.End)
	}
	h.segs = append(h.segs, seg)
	h.spans += len(spans)

	// Keep the segment count in check so a snapshot's k-way merge stays
	// shallow — geometrically, so a day-long stream amortizes O(log n)
	// merge work per span instead of re-merging everything periodically.
	h.compact()
}

// install adds a recovered segment file to the ladder — less the spans at
// the ascending indexes drop, which the WAL won — and hands kept each span
// that stays, with its owned bit. A file left empty is stale.
func (h *history) install(spans []*trace.Span, owned []uint64, fileID uint64, drop []int, kept func(s *trace.Span, owned bool)) {
	seg := ckptSegment{spans: spans, owned: owned, fileID: fileID}
	if len(drop) > 0 {
		if seg = seg.without(drop); len(seg.spans) == 0 {
			h.stale = append(h.stale, seg.replaced...)
			return
		}
	}
	h.segs = append(h.segs, seg)
	h.spans += len(seg.spans)
	for i, s := range seg.spans {
		h.maxEnd = max(h.maxEnd, s.End)
		kept(s, seg.owned.has(i))
	}
}

// reaches reports whether some folded span ends at or after t: whether a
// repair window opening at t has anything to take back.
func (h *history) reaches(t vclock.Time) bool { return h.spans > 0 && h.maxEnd >= t }

// merged k-way-merges the segments with the live set's runs (see liveRuns:
// the released runs are begin-ascending and usually read in place; MergeRuns
// sorts a private copy of a run that needs it and never mutates one) into
// one canonically ordered slice. With a nil owns the spans are the
// correlator's own; otherwise they are header copies as the spans were fed:
// every owned link — a segment's bit, owns(s) for a live span — zero again.
func (h *history) merged(live [][]*trace.Span, owns func(*trace.Span) bool) []*trace.Span {
	runs := make([][]*trace.Span, 0, len(h.segs)+len(live))
	for _, seg := range h.segs {
		run := seg.spans
		if owns != nil {
			run = unlinked(run, seg.owned.has)
		}
		runs = append(runs, run)
	}
	for _, fed := range live {
		if len(fed) == 0 {
			continue // an empty history merges to nil, not to an empty slice
		}
		run := fed
		if owns != nil {
			run = unlinked(fed, func(i int) bool { return owns(fed[i]) })
		}
		runs = append(runs, run)
	}
	return trace.MergeRuns(runs)
}

// unlinked copies the spans' headers (trace.CloneHeaders) and zeroes, on
// the copies, the ParentID of every position owned reports.
func unlinked(spans []*trace.Span, owned func(i int) bool) []*trace.Span {
	run := trace.CloneHeaders(spans)
	for i, s := range run {
		if owned(i) {
			s.ParentID = 0
		}
	}
	return run
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
		id, err := store.WriteSegment(seg.spans, seg.owned, seg.replaced)
		if err != nil {
			return err
		}
		seg.fileID, seg.replaced = id, nil
	}
	return nil
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
		return cmp.Or(cmp.Compare(len(h.segs[a].spans), len(h.segs[b].spans)), cmp.Compare(a, b))
	}
	order := make([]int, len(h.segs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, bySize)
	for {
		pair := -1
		for i := 0; i+1 < len(order); i++ {
			if 2*len(h.segs[order[i]].spans) >= len(h.segs[order[i+1]].spans) {
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

// mergeSegments merges two immutable checkpoint segments into one: a
// two-pointer merge of the canonically sorted inputs — ties toward a, as
// trace.MergeRuns breaks them — that carries each span's owned bit from
// its input's bitset to the output's. The merged segment has no durable
// file yet; it inherits the inputs' files (and their own pending
// replacements) as its replaced list, so persistLadder deletes them only
// once the merged file is on disk.
func mergeSegments(a, b ckptSegment) ckptSegment {
	seg := newSegment(len(a.spans) + len(b.spans))
	// Segments fold from successive stretches of the stream, so the merge
	// is mostly long runs from one side: gallop to the end of each run
	// rather than compare span by span.
	i, j := 0, 0
	for i < len(a.spans) && j < len(b.spans) {
		end := i + gallop(len(a.spans)-i, func(k int) bool { return trace.CanonicalLess(b.spans[j], a.spans[i+k]) })
		seg.take(&a, i, end)
		if i = end; i < len(a.spans) {
			end = j + gallop(len(b.spans)-j, func(k int) bool { return !trace.CanonicalLess(b.spans[j+k], a.spans[i]) })
			seg.take(&b, j, end)
			j = end
		}
	}
	seg.take(&a, i, len(a.spans))
	seg.take(&b, j, len(b.spans))
	for _, in := range [2]ckptSegment{a, b} {
		seg.replaced = append(seg.replaced, in.replaced...)
		if in.fileID != 0 {
			seg.replaced = append(seg.replaced, in.fileID)
		}
	}
	return seg
}

// newSegment returns an empty segment with room for n spans.
func newSegment(n int) ckptSegment {
	return ckptSegment{spans: make([]*trace.Span, 0, n), owned: newOwnedBits(n)}
}

// take appends from.spans[lo:hi] to seg, carrying each span's owned bit to
// its new position.
func (seg *ckptSegment) take(from *ckptSegment, lo, hi int) {
	for k, at := lo, len(seg.spans); k < hi; k, at = k+1, at+1 {
		if from.owned.has(k) {
			seg.owned.set(at)
		}
	}
	seg.spans = append(seg.spans, from.spans[lo:hi]...)
}

// without returns seg less the spans at the ascending indexes drop: fresh
// arrays (seg is immutable), the rest still in canonical order with their
// owned bits moved down. Like a merge's survivor it has no durable file yet
// and names seg's — with seg's own pending replacements — as replaced.
func (seg ckptSegment) without(drop []int) ckptSegment {
	rest, from := newSegment(len(seg.spans)-len(drop)), 0
	for _, i := range drop {
		rest.take(&seg, from, i)
		from = i + 1
	}
	rest.take(&seg, from, len(seg.spans))
	rest.replaced = slices.Clip(seg.replaced)
	if seg.fileID != 0 {
		rest.replaced = append(rest.replaced, seg.fileID)
	}
	return rest
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
// segment's spans — out of the ladder and returns them, each with its owned
// bit, for the resolver to make live again. The cost is the headers sel
// reads plus the segments it touches: a touched segment is replaced by its
// remainder, an emptied one leaves the ladder (its files deletable once a
// WAL rotation covers the spans), an untouched one is not looked at again.
func (h *history) extract(sel func(seg *ckptSegment) []int) (out []folded) {
	ladder, tookMaxEnd := h.segs[:0], false
	for _, seg := range h.segs {
		hits := sel(&seg)
		for _, i := range hits {
			s := seg.spans[i]
			tookMaxEnd = tookMaxEnd || s.End == h.maxEnd
			out = append(out, folded{s, seg.owned.has(i)})
		}
		if len(hits) > 0 {
			if seg = seg.without(hits); len(seg.spans) == 0 {
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
		for _, seg := range h.segs {
			for _, s := range seg.spans {
				h.maxEnd = max(h.maxEnd, s.End)
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
		// headers, done at the first span past the last window. (A
		// malformed window, hi < lo, selects as [lo, lo]: a superset.)
		k := 0
		for i, s := range seg.spans {
			for k < len(windows) && max(windows[k].lo, windows[k].hi) < s.Begin {
				k++
			}
			if k == len(windows) {
				break
			}
			if s.End >= windows[k].lo {
				hits = append(hits, i)
			}
		}
		return hits
	})
}

// movedLaunches is the launches a repair gave a new parent, by correlation
// id, and the one test for the execs that parent must still reach: the
// repair applies it to the live released runs, extractExecs to the folded
// spans.
type movedLaunches struct {
	parent map[uint64]uint64
	// Tracers mint correlation ids in order, so the moved launches' ids span
	// a narrow range: most spans are done at one comparison.
	minCorr, maxCorr uint64
}

func newMovedLaunches(parent map[uint64]uint64) movedLaunches {
	m := movedLaunches{parent: parent, minCorr: math.MaxUint64}
	for corr := range parent {
		m.minCorr, m.maxCorr = min(m.minCorr, corr), max(m.maxCorr, corr)
	}
	return m
}

// newParent returns the parent s, if the correlator owns it, must take from
// its moved launch: zero unless s is an execution span whose launch moved to
// a parent other than the one s holds.
func (m movedLaunches) newParent(s *trace.Span) uint64 {
	if c := s.CorrelationID; c >= m.minCorr && c <= m.maxCorr && s.Kind == trace.KindExec {
		if pid := m.parent[c]; pid != s.ParentID {
			return pid
		}
	}
	return 0
}

// extractExecs takes out the owned execution spans a moved launch's new
// parent must still reach.
func (h *history) extractExecs(moved movedLaunches) []folded {
	return h.extract(func(seg *ckptSegment) (hits []int) {
		for i, s := range seg.spans {
			if moved.newParent(s) != 0 && seg.owned.has(i) {
				hits = append(hits, i)
			}
		}
		return hits
	})
}
