package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
)

// FormatTree writes the trace as an indented span tree in begin order —
// the textual equivalent of the hierarchical timeline the paper's Fig 1
// visualizes. Roots are the spans whose parent is 0 or absent from the
// trace; a span naming itself as parent is nobody's child. Siblings print
// by begin, then ID. maxChildren bounds the children printed per span (0
// means unlimited); elided children are summarized on one line.
func (t *Trace) FormatTree(w io.Writer, maxChildren int) {
	byID := t.SpansByID()
	children := make(map[uint64][]*Span)
	var roots []*Span
	for _, s := range t.Spans {
		if s.ParentID == 0 || byID[s.ParentID] == nil {
			roots = append(roots, s)
		}
		if s.ParentID != 0 && s.ParentID != s.ID {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	byBegin := func(spans []*Span) {
		slices.SortStableFunc(spans, func(a, b *Span) int {
			return cmp.Or(cmp.Compare(a.Begin, b.Begin), cmp.Compare(a.ID, b.ID))
		})
	}
	byBegin(roots)
	for _, kids := range children {
		byBegin(kids)
	}

	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		indent := strings.Repeat("  ", depth)
		kind := ""
		if s.Kind != KindSync {
			kind = " [" + s.Kind.String() + "]"
		}
		fmt.Fprintf(w, "%s%s%s (%s, %v)\n", indent, s.Name, kind, s.Level, s.Duration())
		kids := children[s.ID]
		limit := len(kids)
		if maxChildren > 0 && limit > maxChildren {
			limit = maxChildren
		}
		for _, k := range kids[:limit] {
			walk(k, depth+1)
		}
		if limit < len(kids) {
			fmt.Fprintf(w, "%s  ... %d more children\n", indent, len(kids)-limit)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}
