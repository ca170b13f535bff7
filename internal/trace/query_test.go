package trace

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xsp/internal/vclock"
)

func vTime(n int) vclock.Time { return vclock.Time(n) }

func layeredTrace() *Trace {
	return &Trace{Spans: []*Span{
		{ID: 1, Level: LevelModel, Name: "model_prediction", Begin: 0, End: 100},
		{ID: 2, ParentID: 1, Level: LevelLayer, Name: "conv1", Begin: 5, End: 40},
		{ID: 3, ParentID: 1, Level: LevelLayer, Name: "fc1", Begin: 45, End: 90},
		{ID: 4, ParentID: 2, Level: LevelKernel, Kind: KindLaunch, Name: "cudaLaunchKernel", Begin: 6, End: 8, CorrelationID: 7},
		{ID: 5, ParentID: 2, Level: LevelKernel, Kind: KindExec, Name: "gemm", Begin: 8, End: 30, CorrelationID: 7},
	}}
}

// Appending after a query is visible to the very next Find, SpansByID,
// ByLevel, Levels and FormatTree, with no call between. (The name is kept
// from when Trace cached an index that an append had to invalidate.)
func TestIndexInvalidatedByAppend(t *testing.T) {
	tr := layeredTrace()
	if tr.SpansByID()[99] != nil || tr.Find("cudnnConv") != nil {
		t.Fatal("span 99 should not exist yet")
	}
	tr.Spans = append(tr.Spans,
		&Span{ID: 99, ParentID: 1, Level: LevelLayer, Name: "late", Begin: 91, End: 95},
		&Span{ID: 100, ParentID: 2, Level: LevelLibrary, Name: "cudnnConv", Begin: 7, End: 29},
	)
	if tr.SpansByID()[99] == nil {
		t.Fatal("append was not picked up by SpansByID")
	}
	if s := tr.Find("cudnnConv"); s == nil || s.ID != 100 {
		t.Fatalf("append: Find(cudnnConv) = %v", s)
	}
	if got := ids(tr.ByLevel(LevelLayer)); !slices.Equal(got, []uint64{2, 3, 99}) {
		t.Fatalf("append: ByLevel(layer) = %v, want [2 3 99]", got)
	}
	if got := tr.Levels(); !slices.Equal(got, []Level{LevelModel, LevelLayer, LevelLibrary, LevelKernel}) {
		t.Fatalf("append: Levels = %v", got)
	}
	if got := modelChildren(tr); !slices.Equal(got, []string{"conv1", "fc1", "late"}) {
		t.Fatalf("append: FormatTree children of the model = %v", got)
	}
}

// In-place mutations that keep the span count (reparent, reorder, rename,
// re-level, truncate and regrow to the same length) are visible to the very
// next query, with no call between. (The name is kept from when such a
// mutation needed an explicit invalidation call.)
func TestInvalidateIndexAfterInPlaceMutation(t *testing.T) {
	tr := layeredTrace()
	if got := modelChildren(tr); !slices.Equal(got, []string{"conv1", "fc1"}) {
		t.Fatalf("FormatTree children of the model = %v", got)
	}
	// Reparent conv1's children to the model without changing the count.
	for _, s := range tr.Spans[3:] {
		s.ParentID = 1
	}
	if got := modelChildren(tr); !slices.Equal(got, []string{"conv1", "cudaLaunchKernel", "gemm", "fc1"}) {
		t.Fatalf("reparent: FormatTree children of the model = %v", got)
	}

	tr = &Trace{Spans: []*Span{
		{ID: 1, Level: LevelModel, Name: "model_prediction", Begin: 0, End: 100},
		{ID: 2, Level: LevelLayer, Name: "dup", Begin: 5, End: 40},
		{ID: 3, Level: LevelLayer, Name: "dup", Begin: 5, End: 60},
		{ID: 4, Level: LevelKernel, Name: "gemm", Begin: 8, End: 30},
		{ID: 5, Level: LevelLibrary, Name: "cudnnConv", Begin: 7, End: 29},
	}}
	query := func() { tr.Find("dup"); tr.ByLevel(LevelLayer); tr.Levels() }

	// Reorder: the other "dup" is first now, in Find and among ByLevel's
	// begin ties.
	query()
	tr.Spans[1], tr.Spans[2] = tr.Spans[2], tr.Spans[1]
	if s := tr.Find("dup"); s == nil || s.ID != 3 {
		t.Fatalf("reorder: Find(dup) = %v, want span 3", s)
	}
	if got := ids(tr.ByLevel(LevelLayer)); !slices.Equal(got, []uint64{3, 2}) {
		t.Fatalf("reorder: ByLevel(layer) = %v, want [3 2]", got)
	}

	// Rename and re-level in place.
	query()
	tr.Spans[1].Name = "conv1"
	tr.Spans[3].Level = LevelLayer
	if s := tr.Find("dup"); s == nil || s.ID != 2 {
		t.Fatalf("rename: Find(dup) = %v, want span 2", s)
	}
	if s := tr.Find("conv1"); s == nil || s.ID != 3 {
		t.Fatalf("rename: Find(conv1) = %v, want span 3", s)
	}
	if got := ids(tr.ByLevel(LevelLayer)); !slices.Equal(got, []uint64{3, 2, 4}) {
		t.Fatalf("re-level: ByLevel(layer) = %v, want [3 2 4]", got)
	}
	if got := tr.Levels(); !slices.Equal(got, []Level{LevelModel, LevelLayer, LevelLibrary}) {
		t.Fatalf("re-level: Levels = %v", got)
	}

	// Truncate and regrow to the same length in place.
	query()
	n := len(tr.Spans)
	tr.Spans = append(tr.Spans[:n-1], &Span{ID: 6, Level: LevelKernel, Name: "regrown", Begin: 81, End: 85})
	if tr.Find("cudnnConv") != nil || tr.Find("regrown") == nil {
		t.Fatal("truncate+regrow: Find reads the dropped span or misses the new one")
	}
	if got := tr.Levels(); !slices.Equal(got, []Level{LevelModel, LevelLayer, LevelKernel}) {
		t.Fatalf("truncate+regrow: Levels = %v", got)
	}
	if got := ids(tr.ByLevel(LevelKernel)); !slices.Equal(got, []uint64{6}) {
		t.Fatalf("truncate+regrow: ByLevel(kernel) = %v", got)
	}
}

// modelChildren returns the names FormatTree prints as the root's children:
// the lines indented exactly once.
func modelChildren(tr *Trace) []string {
	var children []string
	for _, line := range strings.Split(treeString(tr, 0), "\n") {
		if strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") {
			children = append(children, strings.Fields(line)[0])
		}
	}
	return children
}

// ByLevel orders by begin over the whole trace, whatever order spans were
// appended in.
func TestByLevelSortedAfterRebuild(t *testing.T) {
	tr := layeredTrace()
	// Append out of begin order.
	tr.Spans = append(tr.Spans, &Span{ID: 6, Level: LevelLayer, Name: "early", Begin: 1, End: 4})
	layers := tr.ByLevel(LevelLayer)
	if len(layers) != 3 || layers[0].Name != "early" || layers[1].Name != "conv1" {
		t.Fatalf("ByLevel not begin-sorted after append: %v", names(layers))
	}
}

func names(spans []*Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

func ids(spans []*Span) []uint64 {
	out := make([]uint64, len(spans))
	for i, s := range spans {
		out[i] = s.ID
	}
	return out
}

// An appended span at a level the trace has never seen must show up in
// Levels, in sorted position.
func TestIncrementalExtendNewLevel(t *testing.T) {
	tr := layeredTrace()
	if got := len(tr.Levels()); got != 3 {
		t.Fatalf("Levels = %d, want 3", got)
	}
	tr.Spans = append(tr.Spans, &Span{ID: 20, Level: LevelLibrary, Name: "cudnnConv", Begin: 7, End: 29})
	levels := tr.Levels()
	if len(levels) != 4 || levels[2] != LevelLibrary {
		t.Fatalf("Levels after new-level append = %v", levels)
	}
	if got := tr.ByLevel(LevelLibrary); len(got) != 1 || got[0].ID != 20 {
		t.Fatalf("ByLevel(library) = %v", names(got))
	}
}

// After out-of-order appends the per-level order must be begin-sorted over
// the whole trace, and FormatTree's sibling order with it.
func TestIncrementalExtendOutOfOrderMerge(t *testing.T) {
	tr := layeredTrace()
	tr.ByLevel(LevelLayer)
	tr.Spans = append(tr.Spans,
		&Span{ID: 30, ParentID: 1, Level: LevelLayer, Name: "late", Begin: 92, End: 99},
		&Span{ID: 31, ParentID: 1, Level: LevelLayer, Name: "early", Begin: 1, End: 4},
		&Span{ID: 32, ParentID: 1, Level: LevelLayer, Name: "mid", Begin: 42, End: 44},
	)
	want := []string{"early", "conv1", "mid", "fc1", "late"}
	if got := names(tr.ByLevel(LevelLayer)); !slices.Equal(got, want) {
		t.Fatalf("ByLevel(layer) after out-of-order append = %v, want %v", got, want)
	}
	if children := modelChildren(tr); !slices.Equal(children, want) {
		t.Fatalf("FormatTree children of the model = %v, want %v", children, want)
	}
}

// Truncating Spans and regrowing it past its old length is visible to the
// next query.
func TestTruncateRegrowRebuilds(t *testing.T) {
	tr := layeredTrace()
	tr.Find("gemm")
	n := len(tr.Spans)
	dropped := tr.Spans[n-1]
	tr.Spans = append(tr.Spans[:n-1],
		&Span{ID: 91, Level: LevelLayer, Name: "regrowA", Begin: 70, End: 75},
		&Span{ID: 92, Level: LevelLayer, Name: "regrowB", Begin: 76, End: 80},
	)
	byID := tr.SpansByID()
	if byID[dropped.ID] != nil || tr.Find(dropped.Name) != nil {
		t.Fatal("a truncated span is still found")
	}
	if byID[91] == nil || byID[92] == nil || tr.Find("regrowA") == nil {
		t.Fatal("regrown spans not found")
	}
}

// Property: a trace grown by random appends (random sizes, random begin
// order, occasionally new levels) answers every query exactly like a trace
// built from scratch over the same spans.
func TestIncrementalExtendMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grown := &Trace{}
	var all []*Span
	nextID := uint64(1)
	for round := 0; round < 20; round++ {
		k := 1 + rng.Intn(40)
		for i := 0; i < k; i++ {
			begin := vTime(rng.Intn(1000))
			s := &Span{
				ID:    nextID,
				Level: Level(rng.Intn(5)),
				Name:  "s",
				Begin: begin,
				End:   begin + vTime(1+rng.Intn(50)),
			}
			nextID++
			grown.Spans = append(grown.Spans, s)
			all = append(all, s)
		}
		grown.Levels() // query the grown trace this round

		fresh := &Trace{Spans: slices.Clone(all)}
		if gl, fl := grown.Levels(), fresh.Levels(); !slices.Equal(gl, fl) {
			t.Fatalf("round %d: Levels differ: %v vs %v", round, gl, fl)
		}
		for _, l := range fresh.Levels() {
			if a, b := grown.ByLevel(l), fresh.ByLevel(l); !slices.Equal(a, b) {
				t.Fatalf("round %d: ByLevel(%v) differs: %v vs %v", round, l, ids(a), ids(b))
			}
		}
		gm, fm := grown.SpansByID(), fresh.SpansByID()
		for _, s := range all {
			if gm[s.ID] != fm[s.ID] || gm[s.ID] != s {
				t.Fatalf("round %d: SpansByID[%d] differs", round, s.ID)
			}
		}
	}
}
