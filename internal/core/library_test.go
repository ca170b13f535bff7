package core

import (
	"strings"
	"testing"

	"xsp/internal/cupti"
	"xsp/internal/trace"
)

// mllg adds the ML-library level between layers and kernels.
var mllg = LevelSet{Model: true, Layer: true, Library: true, GPU: true}

// The paper's extensibility example (Section III-E): an ML-library tracer
// between the layer and GPU kernel levels. Library-call spans must nest
// under their layer spans, and kernel launches must nest under the library
// calls — a four-deep hierarchy.
func TestLibraryLevelProfile(t *testing.T) {
	s := newSession()
	res, err := s.Profile(resnetGraph(t, 4), Options{Levels: mllg, GPUMetrics: cupti.StandardMetrics})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	libSpans := tr.ByLevel(trace.LevelLibrary)
	if len(libSpans) < 100 {
		t.Fatalf("library spans = %d, want one per kernel-launching layer", len(libSpans))
	}

	// Every library span's parent is a layer span.
	names := map[string]bool{}
	byID := tr.SpansByID()
	for _, lib := range libSpans {
		p := byID[lib.ParentID]
		if p == nil || p.Level != trace.LevelLayer {
			t.Fatalf("library span %q parent = %+v, want a layer", lib.Name, p)
		}
		names[lib.Name] = true
	}
	for _, want := range []string{"cudnnConvolutionForward", "cublasSgemm", "cudnnPoolingForward", "launchElementwise"} {
		if !names[want] {
			t.Errorf("missing library call %q in trace", want)
		}
	}

	// Kernel launch spans nest under the library spans; layer
	// attribution still works through the extra level.
	launchUnderLib := 0
	for _, sp := range tr.Spans {
		if sp.Kind == trace.KindLaunch && sp.Name == "cudaLaunchKernel" {
			if p := byID[sp.ParentID]; p != nil && p.Level == trace.LevelLibrary {
				launchUnderLib++
			}
		}
	}
	if launchUnderLib < 100 {
		t.Fatalf("only %d launches parented to library calls", launchUnderLib)
	}
}

func TestLibraryLevelKeepsKernelAttribution(t *testing.T) {
	s := newSession()
	res, err := s.Profile(resnetGraph(t, 64), Options{Levels: mllg})
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the analysis attribution logic indirectly: every conv kernel
	// exec span must reach a Conv2D layer by walking parents.
	tr := res.Trace
	byID := map[uint64]*trace.Span{}
	for _, sp := range tr.Spans {
		byID[sp.ID] = sp
	}
	checked := 0
	for _, sp := range tr.Spans {
		if sp.Kind != trace.KindExec || !strings.Contains(sp.Name, "scudnn") {
			continue
		}
		cur := byID[sp.ParentID]
		for cur != nil && cur.Level != trace.LevelLayer {
			cur = byID[cur.ParentID]
		}
		if cur == nil || cur.Tag("layer_type") != "Conv2D" {
			t.Fatalf("scudnn kernel not attributed to a Conv2D layer (got %+v)", cur)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no scudnn kernels found")
	}
}

func TestLevelSetStringWithLibrary(t *testing.T) {
	if got := mllg.String(); got != "M/L/Lib/G" {
		t.Fatalf("M/L/Lib/G set = %q", got)
	}
}
