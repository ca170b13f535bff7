package workload

import (
	"slices"
	"testing"

	"xsp/internal/trace"
)

func TestSyntheticTraceShape(t *testing.T) {
	tr := SyntheticTrace(SyntheticSpec{Spans: 10_000, Seed: 1})
	if n := len(tr.Spans); n < 9_000 || n > 10_000 {
		t.Fatalf("span count %d not within ~10k", n)
	}
	if tr.Find("model_prediction") == nil {
		t.Fatal("model span missing")
	}
	launches, execs := 0, 0
	for _, s := range tr.Spans {
		switch s.Kind {
		case trace.KindLaunch:
			launches++
		case trace.KindExec:
			execs++
		}
		if s.ParentID != 0 {
			t.Fatalf("span %d pre-linked without Prelinked", s.ID)
		}
	}
	if launches == 0 || launches != execs {
		t.Fatalf("launch/exec pairing broken: %d launches, %d execs", launches, execs)
	}
	// Every exec must share a correlation id with exactly one launch.
	group := map[uint64]int{}
	for _, s := range tr.Spans {
		group[s.CorrelationID]++
	}
	for _, s := range tr.Spans {
		if s.Kind == trace.KindExec && (s.CorrelationID == 0 || group[s.CorrelationID] != 2) {
			t.Fatalf("exec %d: correlation group size %d, want 2", s.ID, group[s.CorrelationID])
		}
	}
}

func TestSyntheticTraceDeterministic(t *testing.T) {
	a := SyntheticTrace(SyntheticSpec{Spans: 5_000, Seed: 9})
	b := SyntheticTrace(SyntheticSpec{Spans: 5_000, Seed: 9})
	if len(a.Spans) != len(b.Spans) {
		t.Fatalf("span counts differ: %d vs %d", len(a.Spans), len(b.Spans))
	}
	for i := range a.Spans {
		x, y := a.Spans[i], b.Spans[i]
		if x.ID != y.ID || x.Begin != y.Begin || x.End != y.End || x.Level != y.Level {
			t.Fatalf("span %d differs between identically seeded runs", i)
		}
	}
}

func TestSyntheticTraceVariants(t *testing.T) {
	dev := SyntheticTrace(SyntheticSpec{Spans: 3_000, Seed: 2, DropLaunches: true})
	for _, s := range dev.Spans {
		if s.Kind == trace.KindLaunch {
			t.Fatal("DropLaunches left a launch span")
		}
	}

	linked := SyntheticTrace(SyntheticSpec{Spans: 3_000, Seed: 2, Prelinked: true})
	model := linked.Find("model_prediction")
	if !slices.ContainsFunc(linked.Spans, func(s *trace.Span) bool { return s.ParentID == model.ID && s.ID != model.ID }) {
		t.Fatal("Prelinked trace has no model children")
	}
	for _, s := range linked.Spans {
		if s != model && s.ParentID == 0 {
			t.Fatalf("Prelinked left span %d unparented", s.ID)
		}
	}

	piped := SyntheticTrace(SyntheticSpec{Spans: 3_000, Seed: 2, Streams: 2})
	layers := piped.ByLevel(trace.LevelLayer)
	crossing := false
	for i := 0; i < len(layers) && !crossing; i++ {
		for j := i + 1; j < len(layers); j++ {
			a, b := layers[i], layers[j]
			if a.Begin < b.End && b.Begin < a.End && // overlap...
				!(a.Begin <= b.Begin && b.End <= a.End) && // ...without
				!(b.Begin <= a.Begin && a.End <= b.End) { // containment
				crossing = true
				break
			}
		}
	}
	if !crossing {
		t.Fatal("two-stream trace has no crossing layers; it no longer exercises the tree fallback")
	}
}
