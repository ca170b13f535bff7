package trace

import (
	"sort"
	"sync"
)

// traceIndex holds the lazily built lookup structures for a Trace. The
// index is owned by the Trace and mutated only under Trace.mu.
//
// Growth and invalidation contract (see also the package documentation):
//
//   - The index is built on first use and rebuilt when the trace has
//     grown or shrunk since (len(Trace.Spans) differs from the length it
//     was built at) — including truncating and regrowing it to the same
//     length or beyond between queries, which the index detects by
//     checking the span at its build boundary.
//   - In-place mutations that change what the index records without
//     changing the span count — renaming spans, reordering Spans — must be
//     followed by an explicit InvalidateIndex call. SortByBegin does this
//     itself. Rewriting only ParentID links (as core.Correlate does) may
//     use the cheaper InvalidateChildren, which keeps every other index.
//   - Slices returned by the indexed accessors ByLevel, Children, and
//     ByCorrelation are shared with the index: callers must treat them as
//     read-only. Levels returns a copy.
type traceIndex struct {
	built   int // len(Trace.Spans) when the index was built
	byID    map[uint64]*Span
	byName  map[string]*Span   // first span per name, in Spans order
	byLevel map[Level][]*Span  // begin-sorted (stable over Spans order)
	byCorr  map[uint64][]*Span // correlation id -> spans, in Spans order
	levels  []Level            // sorted distinct levels
	last    *Span              // Spans[built-1] at build time; detects truncate+regrow

	children   map[uint64][]*Span // parent id -> begin-sorted children
	childrenOK bool               // adjacency built; false initially and after InvalidateChildren
}

// index returns the current index, building it if the trace has never been
// indexed and rebuilding it if the trace has grown, shrunk or regrown.
func (t *Trace) index() *traceIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.indexLocked()
}

func (t *Trace) indexLocked() *traceIndex {
	if t.idx == nil || t.idx.built != len(t.Spans) || t.idx.stale(t.Spans) {
		t.idx = t.buildIndex()
	}
	return t.idx
}

// stale reports whether the span at the index's build boundary is no
// longer the one that was indexed there — the signature of Spans having
// been truncated and regrown to the indexed length since the last build,
// which the length check cannot see. Only called with built == len(spans).
func (ix *traceIndex) stale(spans []*Span) bool {
	return ix.built > 0 && spans[ix.built-1] != ix.last
}

// childrenIndex returns the children adjacency, relinking it from scratch
// when a ParentID rewrite dropped it (InvalidateChildren) while keeping
// the rest of the index.
func (t *Trace) childrenIndex() map[uint64][]*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := t.indexLocked()
	if !ix.childrenOK {
		ix.children = buildChildren(t.Spans)
		ix.childrenOK = true
	}
	return ix.children
}

// InvalidateIndex discards the lazily built indexes so the next query
// rebuilds them. Callers must invoke it after mutating spans in place in a
// way that does not change the span count (e.g. renaming spans or
// reordering the Spans slice); a changed span count is detected
// automatically, and ParentID-only rewrites can use the cheaper
// InvalidateChildren.
func (t *Trace) InvalidateIndex() {
	t.mu.Lock()
	t.idx = nil
	t.mu.Unlock()
}

// InvalidateChildren discards only the children adjacency, keeping the
// span-by-ID, name, per-level, correlation, and level indexes. It is the
// right invalidation after rewriting ParentID links in place — the only
// indexed state ParentID feeds — and is what core.Correlate uses, so a
// correlated trace keeps its (expensive) per-level views.
func (t *Trace) InvalidateChildren() {
	t.mu.Lock()
	if t.idx != nil {
		t.idx.children = nil
		t.idx.childrenOK = false
	}
	t.mu.Unlock()
}

// buildIndex builds everything except the children adjacency, which is
// built lazily by childrenIndex on the first Children/Subtree call: the
// main Correlate path reads Levels and ByLevel, rewrites ParentIDs, and
// ends with InvalidateChildren — an eagerly built adjacency would be
// discarded unread.
func (t *Trace) buildIndex() *traceIndex {
	n := len(t.Spans)
	ix := &traceIndex{
		built:   n,
		byID:    make(map[uint64]*Span, n),
		byName:  make(map[string]*Span, n),
		byLevel: make(map[Level][]*Span),
		byCorr:  make(map[uint64][]*Span),
	}
	if n > 0 {
		ix.last = t.Spans[n-1]
	}
	for _, s := range t.Spans {
		if _, ok := ix.byID[s.ID]; !ok {
			ix.byID[s.ID] = s
		}
		if _, ok := ix.byName[s.Name]; !ok {
			ix.byName[s.Name] = s
		}
		ix.byLevel[s.Level] = append(ix.byLevel[s.Level], s)
		if s.CorrelationID != 0 {
			ix.byCorr[s.CorrelationID] = append(ix.byCorr[s.CorrelationID], s)
		}
	}
	ix.levels = make([]Level, 0, len(ix.byLevel))
	for l := range ix.byLevel {
		ix.levels = append(ix.levels, l)
	}
	sort.Slice(ix.levels, func(i, j int) bool { return ix.levels[i] < ix.levels[j] })

	// The per-level slices sort independently, so sort them concurrently,
	// one goroutine per stack level.
	var wg sync.WaitGroup
	for _, spans := range ix.byLevel {
		wg.Add(1)
		go func(spans []*Span) {
			defer wg.Done()
			sortSpansByBegin(spans)
		}(spans)
	}
	wg.Wait()
	return ix
}

// buildChildren assembles the begin-sorted parent-to-children adjacency.
func buildChildren(spans []*Span) map[uint64][]*Span {
	children := make(map[uint64][]*Span)
	for _, s := range spans {
		if s.ParentID != 0 && s.ParentID != s.ID {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	for _, kids := range children {
		sortSpansByBegin(kids)
	}
	return children
}

// sortSpansByBegin orders spans by begin time, keeping the existing order
// among ties — the same ordering the pre-index linear accessors used.
func sortSpansByBegin(spans []*Span) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Begin < spans[j].Begin })
}

// ByCorrelation returns the spans sharing the given correlation id (the
// launch/exec pair of one asynchronous operation), in trace order. The
// returned slice is shared with the index and must not be mutated. It
// returns nil for correlation id 0, which marks "no correlation".
func (t *Trace) ByCorrelation(id uint64) []*Span {
	if id == 0 {
		return nil
	}
	return t.index().byCorr[id]
}
