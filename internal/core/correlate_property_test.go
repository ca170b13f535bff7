package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// correlators are the two parent reconstructions the properties below hold
// for: the product's (the stream fed once and flushed) and the batch
// reference it is checked against.
var correlators = []struct {
	name string
	run  func(*trace.Trace)
}{{"stream", correlate}, {"Correlate", Correlate}}

// buildNestedTrace generates a random strictly-nested three-level span
// hierarchy (model -> layers -> kernels) with known ground-truth parents,
// then strips the kernel parents the way disjoint profilers would.
func buildNestedTrace(rng *rand.Rand) (*trace.Trace, map[uint64]uint64) {
	truth := map[uint64]uint64{}
	var spans []*trace.Span

	model := &trace.Span{ID: trace.NewSpanID(), Level: trace.LevelModel, Name: "model_prediction"}
	spans = append(spans, model)

	cursor := vclock.Time(0)
	nLayers := 1 + rng.Intn(6)
	for i := 0; i < nLayers; i++ {
		layer := &trace.Span{
			ID: trace.NewSpanID(), ParentID: model.ID,
			Level: trace.LevelLayer, Name: "layer",
			Begin: cursor,
		}
		inner := cursor + 1
		nKernels := rng.Intn(4)
		for k := 0; k < nKernels; k++ {
			dur := vclock.Time(1 + rng.Intn(50))
			launch := &trace.Span{
				ID: trace.NewSpanID(), Level: trace.LevelKernel,
				Kind: trace.KindLaunch, Name: "cudaLaunchKernel",
				Begin: inner, End: inner + 2, CorrelationID: uint64(1000*i + k + 1),
			}
			exec := &trace.Span{
				ID: trace.NewSpanID(), Level: trace.LevelKernel,
				Kind: trace.KindExec, Name: "kernel",
				Begin: inner + 2, End: inner + 2 + dur, CorrelationID: launch.CorrelationID,
			}
			truth[launch.ID] = layer.ID
			truth[exec.ID] = layer.ID
			spans = append(spans, launch, exec)
			inner = exec.End + 1
		}
		layer.End = inner + 1
		cursor = layer.End + vclock.Time(1+rng.Intn(5))
		spans = append(spans, layer)
	}
	model.Begin = 0
	model.End = cursor + 1
	return &trace.Trace{Spans: spans}, truth
}

// Property: for strictly nested, serialized span sets, both
// reconstructions recover exactly the ground-truth parents.
func TestCorrelateRecoversNestedHierarchy(t *testing.T) {
	for _, c := range correlators {
		t.Run(c.name, func(t *testing.T) { testRecoversNestedHierarchy(t, c.run) })
	}
}

func testRecoversNestedHierarchy(t *testing.T, correlate func(*trace.Trace)) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, truth := buildNestedTrace(rng)
		correlate(tr)
		byID := tr.SpansByID()
		for id, wantParent := range truth {
			sp := byID[id]
			if sp == nil || sp.ParentID != wantParent {
				return false
			}
		}
		return !Ambiguous(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: neither reconstruction overwrites parents that tracers
// recorded directly.
func TestCorrelatePreservesExplicitParents(t *testing.T) {
	for _, c := range correlators {
		t.Run(c.name, func(t *testing.T) { testPreservesExplicitParents(t, c.run) })
	}
}

func testPreservesExplicitParents(t *testing.T, correlate func(*trace.Trace)) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, _ := buildNestedTrace(rng)
		want := map[uint64]uint64{}
		for _, sp := range tr.Spans {
			if sp.ParentID != 0 {
				want[sp.ID] = sp.ParentID
			}
		}
		correlate(tr)
		byID := tr.SpansByID()
		for id, p := range want {
			if byID[id].ParentID != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
