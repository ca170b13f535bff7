package core

import (
	"slices"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// reopenAll is the whole-ladder reopen the windowed extraction replaced,
// kept as its reference: every checkpoint segment folds back into the live
// state — arrival list, parented set, released runs and exec table rebuilt
// over all of history — so the repair that follows finds everything live
// and takes nothing out of a checkpoint. Exact, O(total spans).
func (sc *StreamCorrelator) reopenAll() {
	var released []*trace.Span
	for _, l := range sc.levels {
		released = append(released, sc.rel.slot(l).spans...)
	}
	for _, seg := range sc.hist.segs {
		for i, s := range seg.spans {
			sc.all = append(sc.all, s)
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
	sc.execs = make(map[uint64][]*trace.Span)
	for _, s := range released {
		sc.noteReleased(s)
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
// for live spans, from the parented set.
func (sc *StreamCorrelator) OwnedBits() map[uint64]bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	owned := make(map[uint64]bool, len(sc.all)+sc.hist.spans)
	for _, seg := range sc.hist.segs {
		for i, s := range seg.spans {
			owned[s.ID] = seg.owned.has(i)
		}
	}
	for _, s := range sc.all {
		owned[s.ID] = sc.owns(s)
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
