package core

import (
	"math/rand"
	"testing"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// randomTrace generates a randomized multi-level trace. Shapes:
//
//	"nested"     — serialized layers, kernels inside them (sweep-eligible)
//	"pipelined"  — two interleaved layer timelines whose spans cross
//	"deviceonly" — nested, but without launch spans, so every exec span
//	               needs the pass-2 containment fallback
func randomTrace(rng *rand.Rand, shape string) *trace.Trace {
	streams := 1
	if shape == "pipelined" {
		streams = 2
	}
	var spans []*trace.Span
	var nextID uint64
	id := func() uint64 { nextID++; return nextID }

	model := &trace.Span{ID: id(), Level: trace.LevelModel, Name: "model_prediction"}
	spans = append(spans, model)
	var end vclock.Time
	corr := uint64(0)
	for st := 0; st < streams; st++ {
		cursor := vclock.Time(st * (3 + rng.Intn(10)))
		for li := 0; li < 2+rng.Intn(6); li++ {
			layer := &trace.Span{ID: id(), Level: trace.LevelLayer, Name: "layer", Begin: cursor}
			inner := cursor + 1
			for k := 0; k < rng.Intn(5); k++ {
				corr++
				dur := vclock.Time(1 + rng.Intn(30))
				if shape != "deviceonly" {
					spans = append(spans, &trace.Span{
						ID: id(), Level: trace.LevelKernel,
						Kind: trace.KindLaunch, Name: "cudaLaunchKernel",
						Begin: inner, End: inner + 2, CorrelationID: corr,
					})
				}
				exec := &trace.Span{
					ID: id(), Level: trace.LevelKernel,
					Kind: trace.KindExec, Name: "kernel",
					Begin: inner + 2, End: inner + 2 + dur, CorrelationID: corr,
				}
				spans = append(spans, exec)
				inner = exec.End + 1
			}
			layer.End = inner + 1
			spans = append(spans, layer)
			cursor = layer.End + vclock.Time(rng.Intn(4)) - 1 // occasional touching layers
			if cursor < layer.End {
				cursor = layer.End
			}
		}
		if cursor > end {
			end = cursor
		}
	}
	model.Begin = 0
	model.End = end + 1
	return &trace.Trace{Spans: spans}
}

func cloneTrace(tr *trace.Trace) *trace.Trace {
	out := &trace.Trace{Spans: make([]*trace.Span, len(tr.Spans))}
	for i, s := range tr.Spans {
		out.Spans[i] = s.Clone()
	}
	return out
}

// Property: the sweep-line and interval-tree paths assign identical
// parents, on every shape the generator produces — including the
// pipelined traces Correlate would route to the tree.
func TestSweepMatchesTreeOnRandomTraces(t *testing.T) {
	for _, shape := range []string{"nested", "pipelined", "deviceonly"} {
		t.Run(shape, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				base := randomTrace(rand.New(rand.NewSource(seed)), shape)
				bySweep := cloneTrace(base)
				byTree := cloneTrace(base)
				CorrelateBy(bySweep, PathSweep)
				CorrelateBy(byTree, PathTree)
				for i := range base.Spans {
					s, tt := bySweep.Spans[i], byTree.Spans[i]
					if s.ParentID != tt.ParentID {
						t.Fatalf("seed %d: span %d (%s %s [%d,%d)): sweep parent %d, tree parent %d",
							seed, s.ID, s.Level, s.Kind, s.Begin, s.End, s.ParentID, tt.ParentID)
					}
				}
			}
		})
	}
}

// Property: Correlate is always equivalent to the tree path — it
// only takes the fast path when that is safe.
func TestAutoCorrelateMatchesTree(t *testing.T) {
	for _, shape := range []string{"nested", "pipelined", "deviceonly"} {
		for seed := int64(0); seed < 25; seed++ {
			base := randomTrace(rand.New(rand.NewSource(1000+seed)), shape)
			auto := cloneTrace(base)
			byTree := cloneTrace(base)
			Correlate(auto)
			CorrelateBy(byTree, PathTree)
			for i := range base.Spans {
				if auto.Spans[i].ParentID != byTree.Spans[i].ParentID {
					t.Fatalf("%s seed %d: span %d: auto parent %d, tree parent %d",
						shape, seed, auto.Spans[i].ID, auto.Spans[i].ParentID, byTree.Spans[i].ParentID)
				}
			}
		}
	}
}

func TestSweepEligibility(t *testing.T) {
	mk := func(shape string, seed int64) *trace.Trace {
		return randomTrace(rand.New(rand.NewSource(seed)), shape)
	}
	for seed := int64(0); seed < 20; seed++ {
		tr := mk("nested", seed)
		if !sweepEligible(tr, tr.Levels()) {
			t.Fatalf("nested seed %d: serialized trace should take the sweep fast path", seed)
		}
	}
	crossed := 0
	for seed := int64(0); seed < 20; seed++ {
		tr := mk("pipelined", seed)
		if !sweepEligible(tr, tr.Levels()) {
			crossed++
		}
	}
	if crossed == 0 {
		t.Fatal("no pipelined trace fell back to the interval tree; the generator no longer crosses layers")
	}

	// Duplicate intervals at a parent-capable level force the fallback:
	// the smallest container would be ambiguous.
	dup := &trace.Trace{Spans: []*trace.Span{
		{ID: 1, Level: trace.LevelModel, Begin: 0, End: 100},
		{ID: 2, Level: trace.LevelLayer, Begin: 10, End: 50},
		{ID: 3, Level: trace.LevelLayer, Begin: 10, End: 50},
		{ID: 4, Level: trace.LevelKernel, Kind: trace.KindExec, Begin: 20, End: 30},
	}}
	if sweepEligible(dup, dup.Levels()) {
		t.Fatal("duplicate layer intervals must not be sweep-eligible")
	}

	// A crossing overlap at the layer level forces the fallback too (the
	// kernel span below makes the layer level parent-capable; without it
	// the layer level is deepest and its overlaps would be harmless).
	cross := &trace.Trace{Spans: []*trace.Span{
		{ID: 1, Level: trace.LevelModel, Begin: 0, End: 100},
		{ID: 2, Level: trace.LevelLayer, Begin: 10, End: 50},
		{ID: 3, Level: trace.LevelLayer, Begin: 30, End: 80},
		{ID: 4, Level: trace.LevelKernel, Kind: trace.KindExec, Begin: 35, End: 45},
	}}
	if sweepEligible(cross, cross.Levels()) {
		t.Fatal("crossing layer spans must not be sweep-eligible")
	}

	// Crossings at the deepest level are harmless: no span queries it.
	deep := &trace.Trace{Spans: []*trace.Span{
		{ID: 1, Level: trace.LevelModel, Begin: 0, End: 100},
		{ID: 2, Level: trace.LevelLayer, Begin: 5, End: 60},
		{ID: 3, Level: trace.LevelKernel, Kind: trace.KindExec, Begin: 10, End: 30},
		{ID: 4, Level: trace.LevelKernel, Kind: trace.KindExec, Begin: 20, End: 40},
	}}
	if !sweepEligible(deep, deep.Levels()) {
		t.Fatal("kernel-level overlap alone should stay on the sweep fast path")
	}
}

// The property tests above compare paths; this pins concrete semantics:
// an exec span crossing its layer's end resolves through its launch span's
// correlation id, not containment, on both paths.
func TestSweepResolvesPipelinedExecViaCorrelation(t *testing.T) {
	for _, path := range []Path{PathSweep, PathTree} {
		tr := &trace.Trace{Spans: []*trace.Span{
			{ID: 1, Level: trace.LevelModel, Begin: 0, End: 200},
			{ID: 2, Level: trace.LevelLayer, Begin: 10, End: 50},
			{ID: 3, Level: trace.LevelLayer, Begin: 50, End: 90},
			// Launched inside layer 2, executing into layer 3's window.
			{ID: 4, Level: trace.LevelKernel, Kind: trace.KindLaunch, Name: "cudaLaunchKernel", Begin: 12, End: 14, CorrelationID: 9},
			{ID: 5, Level: trace.LevelKernel, Kind: trace.KindExec, Name: "kernel", Begin: 40, End: 70, CorrelationID: 9},
		}}
		CorrelateBy(tr, path)
		if got := tr.SpansByID()[4].ParentID; got != 2 {
			t.Fatalf("%v: launch parent = %d, want layer 2", path, got)
		}
		if got := tr.SpansByID()[5].ParentID; got != 2 {
			t.Fatalf("%v: exec crossing layers must inherit launch parent 2, got %d", path, got)
		}
		if got := tr.SpansByID()[2].ParentID; got != 1 {
			t.Fatalf("%v: layer parent = %d, want model 1", path, got)
		}
	}
}
