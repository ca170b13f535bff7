package core

import (
	"slices"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

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
	for _, seg := range sc.hist.segs {
		for i, s := range seg.spans {
			if !seg.owned.has(i) {
				sc.parented[s] = true
			}
		}
		released = append(released, seg.spans...)
		if seg.fileID != 0 {
			sc.hist.stale = append(sc.hist.stale, seg.fileID)
		}
		sc.hist.stale = append(sc.hist.stale, seg.replaced...)
	}
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
// parent link: read from the owned bitset of every checkpoint segment and,
// for the live set (released, buffered, straggling), from the parented set.
func (sc *StreamCorrelator) OwnedBits() map[uint64]bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	owned := make(map[uint64]bool, sc.liveLen()+sc.hist.spans)
	for _, seg := range sc.hist.segs {
		for i, s := range seg.spans {
			owned[s.ID] = seg.owned.has(i)
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
		wantSpans += len(seg.spans)
		for _, s := range seg.spans {
			wantMaxEnd = max(wantMaxEnd, s.End)
		}
	}
	return sc.hist.spans, sc.hist.maxEnd, wantSpans, wantMaxEnd
}
