package core

import (
	"slices"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// Path names one of the batch parent-assignment paths, so each can be
// exercised and benchmarked on traces the other would handle. The product
// correlates through the stream (correlate); Correlate, the reference the
// stream is held to, is PathTree. PathSweep and the choice between the two
// (PathAuto) live here, where the tests still hold them equal to the tree.
type Path int

const (
	PathSweep Path = iota // the single-sort sweep-line path
	PathTree              // the per-level interval-tree path: Correlate
	PathAuto              // the sweep where sweepEligible allows it, else the tree
)

func (p Path) String() string {
	switch p {
	case PathSweep:
		return "sweep"
	case PathTree:
		return "tree"
	}
	return "auto"
}

// CorrelateBy correlates tr in place on one batch path.
func CorrelateBy(tr *trace.Trace, p Path) {
	levels := tr.Levels()
	if len(levels) == 0 {
		return
	}
	if p == PathTree {
		correlateTree(tr, levels)
		return
	}
	if events := sortedEvents(tr); p == PathSweep || eventsEligible(events, levels) {
		correlateSweep(tr, levels, events)
	} else {
		correlateTree(tr, levels)
	}
}

// sweepEligible reports whether PathAuto takes the sweep-line path on tr.
func sweepEligible(tr *trace.Trace, levels []trace.Level) bool {
	return eventsEligible(sortedEvents(tr), levels)
}

// sortedEvents returns the spans in sweep order (compareEvents).
func sortedEvents(tr *trace.Trace) []*trace.Span {
	events := make([]*trace.Span, len(tr.Spans))
	copy(events, tr.Spans)
	slices.SortFunc(events, compareEvents)
	return events
}

// eventsEligible scans every parent-capable level (all but the deepest —
// the deepest level is never queried for parents) and rejects:
//
//   - crossing overlaps (a span extending past an earlier span's end
//     without containing it): pipelined execution keeps such spans active
//     together, degrading the ancestor stacks toward O(n) scans;
//   - duplicate intervals (two spans with identical bounds): the smallest
//     container is then ambiguous and the tree path's tie-break, which
//     depends on insertion order, must be preserved exactly.
func eventsEligible(events []*trace.Span, levels []trace.Level) bool {
	if len(levels) < 2 {
		return true
	}
	deepest := levels[len(levels)-1]
	var stacks levelStacks
	for _, s := range events {
		if s.Level == deepest {
			continue
		}
		st := stacks.slot(s.Level)
		popDead(st, s.Begin)
		if stack := *st; len(stack) > 0 && stackConflict(stack[len(stack)-1], s) {
			return false
		}
		*st = append(*st, s)
	}
	return true
}

func (ls *levelStacks) push(s *trace.Span) {
	st := ls.slot(s.Level)
	popDead(st, s.Begin)
	*st = append(*st, s)
}

// correlateSweep is the sort-once sweep-line path: an active-ancestor stack
// per level, over the spans in sweep order. It assigns the tree path's
// parents on every trace eventsEligible accepts.
func correlateSweep(tr *trace.Trace, levels []trace.Level, events []*trace.Span) {
	top := levels[0]

	// Launch spans that pass 1 will assign, recorded in trace order up
	// front so launchParent is filled exactly as the tree path fills it
	// (launches with pre-recorded parents are skipped there too).
	var pass1Launches []*trace.Span
	for _, s := range tr.Spans {
		if s.ParentID == 0 && s.Level != top && s.Kind == trace.KindLaunch {
			pass1Launches = append(pass1Launches, s)
		}
	}

	// First pass: launch spans and synchronous spans find parents by
	// containment as the sweep advances.
	stacks := new(levelStacks)
	for _, s := range events {
		if s.ParentID == 0 && s.Level != top && s.Kind != trace.KindExec {
			if p := stacks.parent(levels, s); p != nil {
				s.ParentID = p.ID
			}
		}
		stacks.push(s)
	}

	var launchParent trace.CorrTable[uint64] // correlation id -> parent span id (Put refuses id 0)
	launchParent.Grow(len(pass1Launches))
	for _, s := range pass1Launches {
		launchParent.Put(s.CorrelationID, s.ParentID)
	}

	// Second pass: execution spans inherit the launch span's parent via
	// correlation id; device-only records with no launch span (e.g. a
	// trace captured with the activity API alone) fall back to
	// containment in a fresh sweep.
	var pending map[*trace.Span]bool
	for _, s := range tr.Spans {
		if s.ParentID != 0 || s.Kind != trace.KindExec {
			continue
		}
		if pid, _ := launchParent.Get(s.CorrelationID); pid != 0 {
			s.ParentID = pid
			continue
		}
		if pending == nil {
			pending = make(map[*trace.Span]bool)
		}
		pending[s] = true
	}
	if len(pending) == 0 {
		return
	}
	stacks = new(levelStacks)
	for _, s := range events {
		if pending[s] {
			if p := stacks.parent(levels, s); p != nil {
				s.ParentID = p.ID
			}
		}
		stacks.push(s)
	}
}

// WithMaxWindowSpans returns o with its degraded-window bound set to n in
// place of maxWindowSpans: tiny to force chaining, negative for no bound,
// zero for the default.
func (o StreamOptions) WithMaxWindowSpans(n int) StreamOptions {
	o.windowSpans = n
	return o
}

// SetAutoFoldEvery sets the fold cadence (autoFoldEvery) to n until the
// returned function restores it: a short stream folds into a deep ladder at a
// small n. Not safe beside a running correlator.
func SetAutoFoldEvery(n int) (restore func()) {
	old := autoFoldEvery
	autoFoldEvery = n
	return func() { autoFoldEvery = old }
}

// WatchCuts hands cut, for every segment a reopen cuts until the returned
// function is called, the folds its resident blocks show it holds: each
// block holds records of at least one fold, and no fold's records are in two
// blocks (a fold's block is gathered whole when it turns sparse). A filed
// segment shows none: storeLog counts those. Not safe beside a running
// correlator.
func WatchCuts(cut func(folds int)) (stop func()) {
	onCut = func(seg *ckptSegment) { cut(len(seg.blocks)) }
	return func() { onCut = nil }
}

// reopenAll is the whole-ladder reopen the windowed extraction replaced,
// kept as its reference: every checkpoint segment folds back into the live
// state — parented set and released runs rebuilt over all of history — so
// the repair that follows finds everything live and takes nothing out of a
// checkpoint. Exact, O(total spans).
func (sc *StreamCorrelator) reopenAll() {
	var released []*trace.Span
	for _, l := range sc.levels {
		released = append(released, sc.rel.slot(l).spans...)
	}
	for k, run := range decodeRuns(sc.hist.segs) {
		seg := &sc.hist.segs[k]
		i := 0
		if err := seg.each(func(blk *trace.SpanBlock, r int) bool {
			if !blk.Owned(r) {
				sc.parented[run[i]] = true
			}
			i++
			return true
		}); err != nil {
			panic(err)
		}
		released = append(released, run...)
		if seg.fileID != 0 {
			sc.hist.stale = append(sc.hist.stale, seg.fileID)
		}
		sc.hist.stale = append(sc.hist.stale, seg.replaced...)
	}
	sc.hist.release()
	slices.SortFunc(released, compareEvents)

	sc.rel = levelRuns{}
	for _, s := range released {
		sc.rel.slot(s.Level).push(s)
	}

	sc.hist.segs, sc.hist.spans, sc.hist.maxEnd = nil, 0, 0
}

// ReopenAll runs reopenAll under the correlator's mutex, for the external
// test package (which can import internal/workload; this one cannot).
func (sc *StreamCorrelator) ReopenAll() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.reopenAll()
}

// OwnedBits reports, by span id, whether the correlator owns each span's
// parent link: read from the owned flag of every checkpointed record and,
// for the live set (released, buffered, straggling), from the parented set.
func (sc *StreamCorrelator) OwnedBits() map[uint64]bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	owned := make(map[uint64]bool, sc.liveLen()+sc.hist.spans)
	for _, seg := range sc.hist.segs {
		if err := seg.each(func(blk *trace.SpanBlock, r int) bool {
			owned[blk.ID(r)] = blk.Owned(r)
			return true
		}); err != nil {
			panic(err)
		}
	}
	for _, run := range sc.liveRuns() {
		for _, s := range run {
			owned[s.ID] = sc.owns(s)
		}
	}
	return owned
}

// CheckpointSummary returns the tracked checkpoint span count and maximum
// End beside the same two recounted from the segments.
func (sc *StreamCorrelator) CheckpointSummary() (spans int, maxEnd vclock.Time, wantSpans int, wantMaxEnd vclock.Time) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, seg := range sc.hist.segs {
		if err := seg.each(func(blk *trace.SpanBlock, r int) bool {
			wantSpans++
			wantMaxEnd = max(wantMaxEnd, blk.End(r))
			return true
		}); err != nil {
			panic(err)
		}
	}
	return sc.hist.spans, sc.hist.maxEnd, wantSpans, wantMaxEnd
}

// BlockResidency returns the bytes of every block the checkpoint ladder
// holds, the share of them its records still referenced account for (a
// block's bytes in proportion to its referenced records), and whether any
// two segments share a block.
func (sc *StreamCorrelator) BlockResidency() (resident, referenced int, shared bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	holder := make(map[*byte]int)
	for k, seg := range sc.hist.segs {
		if seg.file != nil {
			continue // nothing resident
		}
		used := make([]int, len(seg.blocks))
		for k, r := range seg.runs {
			used[r.block] += seg.runLen(k)
		}
		for b, blk := range seg.blocks {
			bytes := blk.Bytes()
			resident += len(bytes)
			referenced += len(bytes) * used[b] / blk.Len()
			if at, ok := holder[&bytes[0]]; ok && at != k {
				shared = true
			}
			holder[&bytes[0]] = k
		}
	}
	return resident, referenced, shared
}

// SnapshotRaw is the raw View decoded: the stream as it was fed, for the
// tests that hold the raw view to the spans they fed.
func (sc *StreamCorrelator) SnapshotRaw() *trace.Trace { return sc.View(true).Trace() }

// Trace is SnapshotTrace sharing the live tail's spans with the correlator
// (and with whoever fed them): parents resolved later show through it.
// Checkpointed spans come back as decoded copies, so a span read live by one
// call may be a copy in the next.
func (sc *StreamCorrelator) Trace() *trace.Trace {
	return trace.View{Walk: sc.pin(slices.Clone[[]*trace.Span]).walk}.Trace()
}

// decodeRuns decodes each segment on its own, through the read merge over
// that segment alone: one canonically ordered run of fresh spans each.
func decodeRuns(segs []ckptSegment) [][]*trace.Span {
	runs := make([][]*trace.Span, len(segs))
	for k := range segs {
		p := &pinned{segs: segs[k : k+1]}
		v := trace.View{Walk: p.walk, Err: p.error}
		if err := v.Decode(func(s *trace.Span) { runs[k] = append(runs[k], s) }); err != nil {
			panic(err)
		}
	}
	return runs
}

// ReorderBuffer returns how many spans the reorder buffer holds and the
// capacity of the array it holds them in.
func (sc *StreamCorrelator) ReorderBuffer() (buffered, capacity int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.buffered()), cap(sc.buf)
}
