package core_test

import (
	"net/http/httptest"
	"strings"
	"testing"

	"xsp/internal/analysis"
	"xsp/internal/core"
	"xsp/internal/cupti"
	"xsp/internal/framework"
	"xsp/internal/gpu"
	"xsp/internal/modelzoo"
	"xsp/internal/tensorflow"
	"xsp/internal/trace"
)

func extSession() *core.Session {
	return core.NewSession(tensorflow.New(), gpu.TeslaV100)
}

func extResnetGraph(t *testing.T, batch int) *framework.Graph {
	t.Helper()
	m, ok := modelzoo.ByName("MLPerf_ResNet50_v1.5")
	if !ok {
		t.Fatal("zoo missing ResNet50")
	}
	g, err := m.Graph(batch)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// End-to-end distributed-tracing flow: profile a model, publish the spans
// to a remote tracing server over HTTP (as out-of-process tracers would),
// fetch the aggregated trace back, and run the analysis pipeline on it.
// This exercises the full wire path: span -> JSON -> server -> JSON ->
// analysis.
func TestEndToEndHTTPTracing(t *testing.T) {
	srv := trace.NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Profile locally.
	s := extSession()
	res, err := s.Profile(extResnetGraph(t, 16), core.Options{Levels: core.MLG, GPUMetrics: cupti.StandardMetrics})
	if err != nil {
		t.Fatal(err)
	}

	// Publish every span to the remote server in batches.
	col := trace.NewHTTPCollector(ts.URL)
	col.Publish(res.Trace.Spans...)
	n, err := col.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(res.Trace.Spans) {
		t.Fatalf("published %d of %d spans", n, len(res.Trace.Spans))
	}

	// Fetch the aggregated timeline back and analyze it.
	fetched, err := trace.FetchTraceTenant(ts.Client(), ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(fetched.Spans) != len(res.Trace.Spans) {
		t.Fatalf("fetched %d spans, published %d", len(fetched.Spans), len(res.Trace.Spans))
	}

	rs, err := analysis.NewRunSet(gpu.TeslaV100, fetched)
	if err != nil {
		t.Fatal(err)
	}
	top := rs.TopKernelsByLatency(3)
	if len(top) != 3 {
		t.Fatal("analysis on fetched trace failed")
	}
	for _, k := range top {
		if !strings.Contains(k.Name, "scudnn") && !strings.Contains(k.Name, "cgemm") &&
			!strings.Contains(k.Name, "Eigen") && !strings.Contains(k.Name, "sgemm") {
			t.Errorf("unexpected top kernel %q after round trip", k.Name)
		}
		if k.LatencyMS <= 0 || k.LayerIndex < 0 {
			t.Errorf("kernel %q lost data over the wire: %+v", k.Name, k)
		}
	}

	// The tree view of the fetched trace preserves the hierarchy.
	var sb strings.Builder
	fetched.FormatTree(&sb, 2)
	tree := sb.String()
	for _, want := range []string{"evaluate", "model_prediction", "[launch]", "[exec]"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q", want)
		}
	}
}

// Multiple profiling runs can aggregate into one server; /api/reset
// separates evaluations.
func TestServerAccumulatesRuns(t *testing.T) {
	srv := trace.NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	s := extSession()
	for i := 0; i < 2; i++ {
		res, err := s.Profile(extResnetGraph(t, 1), core.Options{Levels: core.M})
		if err != nil {
			t.Fatal(err)
		}
		col := trace.NewHTTPCollector(ts.URL)
		col.Publish(res.Trace.Spans...)
		if _, err := col.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	fetched, err := trace.FetchTraceTenant(ts.Client(), ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fetched.Spans); got != 8 { // 2 runs x 4 model-level spans
		t.Fatalf("aggregated spans = %d, want 8", got)
	}
}
