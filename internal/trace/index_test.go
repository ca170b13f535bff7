package trace

import (
	"math/rand"
	"testing"

	"xsp/internal/vclock"
)

func vTime(n int) vclock.Time { return vclock.Time(n) }

func indexedTrace() *Trace {
	return &Trace{Spans: []*Span{
		{ID: 1, Level: LevelModel, Name: "model_prediction", Begin: 0, End: 100},
		{ID: 2, ParentID: 1, Level: LevelLayer, Name: "conv1", Begin: 5, End: 40},
		{ID: 3, ParentID: 1, Level: LevelLayer, Name: "fc1", Begin: 45, End: 90},
		{ID: 4, ParentID: 2, Level: LevelKernel, Kind: KindLaunch, Name: "cudaLaunchKernel", Begin: 6, End: 8, CorrelationID: 7},
		{ID: 5, ParentID: 2, Level: LevelKernel, Kind: KindExec, Name: "gemm", Begin: 8, End: 30, CorrelationID: 7},
	}}
}

// Appending after a query must be visible to the next query: the index is
// invalidated by the span-count change alone, with no explicit call.
func TestIndexInvalidatedByAppend(t *testing.T) {
	tr := indexedTrace()
	if tr.ByID(99) != nil {
		t.Fatal("span 99 should not exist yet")
	}
	if got := len(tr.Children(tr.ByID(1))); got != 2 {
		t.Fatalf("Children(model) = %d spans, want 2", got)
	}
	tr.Spans = append(tr.Spans, &Span{ID: 99, ParentID: 1, Level: LevelLayer, Name: "late", Begin: 91, End: 95})
	if tr.ByID(99) == nil {
		t.Fatal("append was not picked up by ByID")
	}
	if got := len(tr.Children(tr.ByID(1))); got != 3 {
		t.Fatalf("Children(model) after append = %d spans, want 3", got)
	}
	if tr.Find("late") == nil {
		t.Fatal("append was not picked up by Find")
	}
	if got := len(tr.ByLevel(LevelLayer)); got != 3 {
		t.Fatalf("ByLevel(layer) after append = %d spans, want 3", got)
	}
}

// In-place mutations keep the span count, so they need InvalidateIndex.
func TestInvalidateIndexAfterInPlaceMutation(t *testing.T) {
	tr := indexedTrace()
	if got := len(tr.Children(tr.ByID(2))); got != 2 {
		t.Fatalf("Children(conv1) = %d spans, want 2", got)
	}
	// Reparent the exec span from conv1 to fc1 without changing the count.
	tr.ByID(5).ParentID = 3
	tr.InvalidateIndex()
	if got := len(tr.Children(tr.ByID(2))); got != 1 {
		t.Fatalf("Children(conv1) after reparent = %d spans, want 1", got)
	}
	if got := len(tr.Children(tr.ByID(3))); got != 1 {
		t.Fatalf("Children(fc1) after reparent = %d spans, want 1", got)
	}
}

func TestByCorrelation(t *testing.T) {
	tr := indexedTrace()
	pair := tr.ByCorrelation(7)
	if len(pair) != 2 || pair[0].ID != 4 || pair[1].ID != 5 {
		t.Fatalf("ByCorrelation(7) = %v, want launch 4 then exec 5", pair)
	}
	if tr.ByCorrelation(0) != nil {
		t.Fatal("ByCorrelation(0) must return nil: 0 marks no correlation")
	}
	if tr.ByCorrelation(12345) != nil {
		t.Fatal("unknown correlation id must return nil")
	}
}

// ByLevel must keep the begin-sorted order the linear implementation had.
func TestByLevelSortedAfterRebuild(t *testing.T) {
	tr := indexedTrace()
	// Append out of begin order.
	tr.Spans = append(tr.Spans, &Span{ID: 6, Level: LevelLayer, Name: "early", Begin: 1, End: 4})
	layers := tr.ByLevel(LevelLayer)
	if len(layers) != 3 || layers[0].Name != "early" || layers[1].Name != "conv1" {
		t.Fatalf("ByLevel not begin-sorted after rebuild: %v", names(layers))
	}
}

func names(spans []*Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// An appended span at a level the trace has never seen must show up in
// Levels, in sorted position.
func TestIncrementalExtendNewLevel(t *testing.T) {
	tr := indexedTrace()
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

// After out-of-order appends the per-level and per-parent order must be
// begin-sorted over the whole trace.
func TestIncrementalExtendOutOfOrderMerge(t *testing.T) {
	tr := indexedTrace()
	tr.ByID(1) // build
	tr.Spans = append(tr.Spans,
		&Span{ID: 30, ParentID: 1, Level: LevelLayer, Name: "late", Begin: 92, End: 99},
		&Span{ID: 31, ParentID: 1, Level: LevelLayer, Name: "early", Begin: 1, End: 4},
		&Span{ID: 32, ParentID: 1, Level: LevelLayer, Name: "mid", Begin: 42, End: 44},
	)
	got := names(tr.ByLevel(LevelLayer))
	want := []string{"early", "conv1", "mid", "fc1", "late"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ByLevel(layer) after out-of-order append = %v, want %v", got, want)
		}
	}
	kids := names(tr.Children(tr.ByID(1)))
	wantKids := []string{"early", "conv1", "mid", "fc1", "late"}
	for i := range wantKids {
		if kids[i] != wantKids[i] {
			t.Fatalf("Children(model) after out-of-order append = %v, want %v", kids, wantKids)
		}
	}
}

// InvalidateChildren must drop only the adjacency: the other indexes
// survive (same slices), and the next Children call relinks from the
// rewritten ParentIDs.
func TestInvalidateChildrenKeepsOtherIndexes(t *testing.T) {
	tr := indexedTrace()
	layersBefore := tr.ByLevel(LevelLayer)
	if got := len(tr.Children(tr.ByID(2))); got != 2 {
		t.Fatalf("Children(conv1) = %d, want 2", got)
	}
	tr.ByID(5).ParentID = 3
	tr.InvalidateChildren()
	if got := len(tr.Children(tr.ByID(2))); got != 1 {
		t.Fatalf("Children(conv1) after reparent = %d, want 1", got)
	}
	if got := len(tr.Children(tr.ByID(3))); got != 1 {
		t.Fatalf("Children(fc1) after reparent = %d, want 1", got)
	}
	layersAfter := tr.ByLevel(LevelLayer)
	if len(layersAfter) != len(layersBefore) {
		t.Fatal("per-level index was lost by InvalidateChildren")
	}
	for i := range layersBefore {
		if layersBefore[i] != layersAfter[i] {
			t.Fatal("per-level index was rebuilt by InvalidateChildren")
		}
	}
}

// Truncating Spans and regrowing it between queries must rebuild: a
// length check alone would miss a regrow to the indexed length.
func TestTruncateRegrowRebuilds(t *testing.T) {
	tr := indexedTrace()
	tr.ByID(1) // build
	n := len(tr.Spans)
	dropped := tr.Spans[n-1]
	tr.Spans = append(tr.Spans[:n-1],
		&Span{ID: 91, Level: LevelLayer, Name: "regrowA", Begin: 70, End: 75},
		&Span{ID: 92, Level: LevelLayer, Name: "regrowB", Begin: 76, End: 80},
	) // len grew past the indexed length, but the boundary span changed
	if tr.ByID(dropped.ID) != nil {
		t.Fatal("index still returns a truncated span")
	}
	if tr.ByID(91) == nil || tr.ByID(92) == nil || tr.Find("regrowA") == nil {
		t.Fatal("regrown spans not indexed")
	}

	// Truncate and regrow to exactly the indexed length: built == len, so
	// only the boundary check can catch it.
	tr.ByID(1)
	n = len(tr.Spans)
	last := tr.Spans[n-1]
	tr.Spans = append(tr.Spans[:n-1],
		&Span{ID: 93, Level: LevelKernel, Name: "regrowC", Begin: 81, End: 85})
	if tr.ByID(last.ID) != nil {
		t.Fatal("index still returns a truncated span (same-length regrow)")
	}
	if tr.ByID(93) == nil || tr.Find("regrowC") == nil {
		t.Fatal("same-length regrown span not indexed")
	}
}

// Property: a trace grown by random appends (random sizes, random begin
// order, occasionally new levels) answers every indexed query exactly like
// a trace indexed from scratch over the same spans.
func TestIncrementalExtendMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grown := &Trace{}
	var all []*Span
	nextID := uint64(1)
	for round := 0; round < 20; round++ {
		k := 1 + rng.Intn(40)
		batch := make([]*Span, 0, k)
		for i := 0; i < k; i++ {
			begin := vTime(rng.Intn(1000))
			s := &Span{
				ID:            nextID,
				Level:         Level(rng.Intn(5)),
				Name:          "s",
				Begin:         begin,
				End:           begin + vTime(1+rng.Intn(50)),
				CorrelationID: uint64(rng.Intn(8)), // 0 sometimes: no correlation
			}
			if len(all) > 0 && rng.Intn(2) == 0 {
				s.ParentID = all[rng.Intn(len(all))].ID
			}
			nextID++
			batch = append(batch, s)
			all = append(all, s)
		}
		grown.Spans = append(grown.Spans, batch...)
		grown.ByID(1) // index the grown trace this round

		fresh := &Trace{Spans: append([]*Span(nil), all...)}
		for _, l := range fresh.Levels() {
			a, b := grown.ByLevel(l), fresh.ByLevel(l)
			if len(a) != len(b) {
				t.Fatalf("round %d: ByLevel(%v) lengths differ: %d vs %d", round, l, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("round %d: ByLevel(%v)[%d] differs: %v vs %v", round, l, i, a[i].ID, b[i].ID)
				}
			}
		}
		if gl, fl := grown.Levels(), fresh.Levels(); len(gl) != len(fl) {
			t.Fatalf("round %d: Levels differ: %v vs %v", round, gl, fl)
		}
		for _, s := range all {
			if grown.ByID(s.ID) != fresh.ByID(s.ID) {
				t.Fatalf("round %d: ByID(%d) differs", round, s.ID)
			}
			a, b := grown.Children(s), fresh.Children(s)
			if len(a) != len(b) {
				t.Fatalf("round %d: Children(%d) lengths differ: %d vs %d", round, s.ID, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("round %d: Children(%d)[%d] differs", round, s.ID, i)
				}
			}
			if s.CorrelationID != 0 {
				a, b := grown.ByCorrelation(s.CorrelationID), fresh.ByCorrelation(s.CorrelationID)
				if len(a) != len(b) {
					t.Fatalf("round %d: ByCorrelation(%d) differs", round, s.CorrelationID)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("round %d: ByCorrelation(%d)[%d] differs", round, s.CorrelationID, i)
					}
				}
			}
		}
	}
}
