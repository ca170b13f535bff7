package core

import (
	"bytes"
	"testing"
	"time"

	"xsp/internal/cupti"
	"xsp/internal/framework"
	"xsp/internal/gpu"
	"xsp/internal/modelzoo"
	"xsp/internal/tensorflow"
	"xsp/internal/trace"
)

func resnetGraph(t *testing.T, batch int) *framework.Graph {
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

func newSession() *Session {
	return NewSession(tensorflow.New(), gpu.TeslaV100)
}

// Every subset of levels renders without a leading or trailing slash —
// sets that skip the model level used to come out as "/L/G".
func TestLevelSetString(t *testing.T) {
	names := [4]string{"M", "L", "Lib", "G"}
	for bits := 0; bits < 16; bits++ {
		ls := LevelSet{
			Model:   bits&1 != 0,
			Layer:   bits&2 != 0,
			Library: bits&4 != 0,
			GPU:     bits&8 != 0,
		}
		want := ""
		for i, on := range []bool{ls.Model, ls.Layer, ls.Library, ls.GPU} {
			if !on {
				continue
			}
			if want != "" {
				want += "/"
			}
			want += names[i]
		}
		if got := ls.String(); got != want {
			t.Errorf("LevelSet %+v = %q, want %q", ls, got, want)
		}
	}
	// The paper's notation for the common sets, pinned explicitly.
	for ls, want := range map[LevelSet]string{M: "M", ML: "M/L", MLG: "M/L/G", MG: "M/G", {Model: true, Layer: true, Library: true, GPU: true}: "M/L/Lib/G",
		{Layer: true, GPU: true}: "L/G"} {
		if got := ls.String(); got != want {
			t.Errorf("LevelSet = %q, want %q", got, want)
		}
	}
}

func TestModelLevelProfile(t *testing.T) {
	s := newSession()
	res, err := s.Profile(resnetGraph(t, 4), Options{Levels: M})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	// Model level: evaluate root + 3 pipeline steps, nothing deeper.
	if got := len(tr.Spans); got != 4 {
		t.Fatalf("M-level spans = %d, want 4", got)
	}
	for _, name := range []string{"evaluate", "input_preprocess", "model_prediction", "output_postprocess"} {
		if tr.Find(name) == nil {
			t.Errorf("missing span %q", name)
		}
	}
	root := tr.Find("evaluate")
	kids := 0
	for _, s := range tr.Spans {
		if s.ParentID == root.ID && s.ID != root.ID {
			kids++
		}
	}
	if kids != 3 {
		t.Fatalf("root children = %d", kids)
	}
	if res.ModelSpan == nil || res.ModelSpan.Duration() <= 0 {
		t.Fatal("model span missing or empty")
	}
}

func TestProfileRequiresModelLevel(t *testing.T) {
	s := newSession()
	if _, err := s.Profile(resnetGraph(t, 1), Options{}); err == nil {
		t.Fatal("expected error without model level")
	}
}

func TestLayerLevelProfile(t *testing.T) {
	s := newSession()
	res, err := s.Profile(resnetGraph(t, 4), Options{Levels: ML})
	if err != nil {
		t.Fatal(err)
	}
	layers := res.Trace.ByLevel(trace.LevelLayer)
	if len(layers) < 200 {
		t.Fatalf("layer spans = %d, want ~231", len(layers))
	}
	predict := res.Trace.Find("model_prediction")
	for i, l := range layers {
		if l.ParentID != predict.ID {
			t.Fatalf("layer %d not a child of prediction", i)
		}
		if l.Tag("layer_type") == "" || l.Tag("layer_index") == "" {
			t.Fatalf("layer %d missing tags", i)
		}
		if l.Begin < predict.Begin || l.End > predict.End {
			t.Fatalf("layer %d outside prediction window", i)
		}
	}
}

func TestFullStackProfileCorrelation(t *testing.T) {
	s := newSession()
	res, err := s.Profile(resnetGraph(t, 4), Options{Levels: MLG})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	var launches, execs []*trace.Span
	for _, sp := range tr.Spans {
		switch {
		case sp.Kind == trace.KindLaunch:
			launches = append(launches, sp)
		case sp.Kind == trace.KindExec && sp.Level == trace.LevelKernel:
			execs = append(execs, sp)
		}
	}
	if len(launches) < 100 || len(execs) < 100 {
		t.Fatalf("kernel spans: %d launches, %d execs", len(launches), len(execs))
	}

	// Every launch span must be inside a layer span (serialized layer
	// profiling), and every exec span must share its launch's parent.
	byCorr := map[uint64]*trace.Span{}
	byID := tr.SpansByID()
	for _, l := range launches {
		p := byID[l.ParentID]
		if p == nil {
			t.Fatal("launch span without parent")
		}
		if p.Level != trace.LevelLayer && p.Name != "model_prediction" {
			t.Fatalf("launch parented to %q at level %v", p.Name, p.Level)
		}
		byCorr[l.CorrelationID] = l
	}
	for _, e := range execs {
		if e.Name == "MemcpyHtoD" || e.Name == "MemcpyDtoH" {
			continue
		}
		l, ok := byCorr[e.CorrelationID]
		if !ok {
			t.Fatalf("exec span %q has no launch (corr %d)", e.Name, e.CorrelationID)
		}
		if e.ParentID != l.ParentID {
			t.Fatalf("exec span %q parent %d != launch parent %d", e.Name, e.ParentID, l.ParentID)
		}
	}
	if Ambiguous(tr) {
		t.Fatal("serialized profile should not be ambiguous")
	}
	if res.Serialized {
		t.Fatal("should not have needed a serialized re-run")
	}
}

func TestKernelMetricsAttached(t *testing.T) {
	s := newSession()
	res, err := s.Profile(resnetGraph(t, 16), Options{Levels: MLG, GPUMetrics: cupti.StandardMetrics})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range res.Trace.Spans {
		if sp.Kind == trace.KindExec && sp.Name == "volta_scudnn_128x64_relu_interior_nn_v1" {
			found = true
			if sp.Metric("flop_count_sp") <= 0 {
				t.Fatal("scudnn kernel missing flop metric")
			}
			if sp.Metric("achieved_occupancy") <= 0 || sp.Metric("achieved_occupancy") > 1 {
				t.Fatal("occupancy out of range")
			}
			if sp.Tag("grid") == "" {
				t.Fatal("grid tag missing")
			}
			break
		}
	}
	if !found {
		t.Fatal("no scudnn kernel in trace at batch 16")
	}
}

// A span encodes its metrics in the order it holds them, so the order the
// session attaches them in reaches the bytes: profiling one model twice must
// encode to the same bytes — once the span ids, minted from a process-wide
// counter, are counted from each run's first.
func TestProfileEncodesDeterministically(t *testing.T) {
	encode := func() []byte {
		res, err := newSession().Profile(resnetGraph(t, 4), Options{Levels: MLG, GPUMetrics: cupti.StandardMetrics})
		if err != nil {
			t.Fatal(err)
		}
		base := ^uint64(0)
		for _, sp := range res.Trace.Spans {
			base = min(base, sp.ID-1)
		}
		multi := false
		for _, sp := range res.Trace.Spans {
			sp.ID -= base
			if sp.ParentID != 0 {
				sp.ParentID -= base
			}
			multi = multi || len(sp.Metrics) > 1
		}
		if !multi {
			t.Fatal("no span carries several metrics: the profile does not exercise their order")
		}
		var buf bytes.Buffer
		if err := res.Trace.EncodeBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := encode()
	for run := 1; run < 4; run++ {
		if again := encode(); !bytes.Equal(again, first) {
			t.Fatalf("profile %d encoded to %d bytes that differ from the first profile's %d", run, len(again), len(first))
		}
	}
}

// Pipelined execution with an activity-only GPU profiler (no launch
// records to correlate through) produces ambiguous parents; Profile must
// detect this and transparently fall back to a serialized run — the
// paper's CUDA_LAUNCH_BLOCKING=1 mechanism.
func TestPipelinedActivityOnlyTriggersSerializedRerun(t *testing.T) {
	s := newSession()
	// Batch 256: per-layer GPU time exceeds the host's dispatch window,
	// so the device falls behind and kernel executions straddle layer
	// boundaries — the genuinely ambiguous case.
	res, err := s.Profile(resnetGraph(t, 256), Options{Levels: MLG, Pipelined: true, ActivityOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Serialized {
		t.Fatal("pipelined activity-only profile should have re-run serialized")
	}
	if Ambiguous(res.Trace) {
		t.Fatal("serialized re-run still ambiguous")
	}
}

// With launch spans available (callback API on), even pipelined execution
// is unambiguous: exec spans resolve their layer through the launch span's
// correlation id, so no serialized re-run is needed.
func TestPipelinedWithCallbackNeedsNoRerun(t *testing.T) {
	s := newSession()
	res, err := s.Profile(resnetGraph(t, 16), Options{Levels: MLG, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Serialized {
		t.Fatal("launch-span correlation should have avoided the re-run")
	}
}

// The leveled experiment reproduces the paper's Fig 2 structure: each
// additional level adds overhead, while the lower-level spans within a
// higher-level run keep their accurate values.
func TestLeveledExperimentation(t *testing.T) {
	s := newSession()
	g := resnetGraph(t, 16)
	lv, err := s.LeveledProfile(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lv.ModelLatency <= 0 {
		t.Fatal("model latency missing")
	}
	if lv.LayerOverhead <= 0 {
		t.Fatalf("layer profiling overhead = %v, want > 0", lv.LayerOverhead)
	}
	if lv.GPUOverhead <= 0 {
		t.Fatalf("GPU profiling overhead = %v, want > 0", lv.GPUOverhead)
	}
	// The M/L/G prediction latency decomposes into the accurate M
	// latency plus the two overheads.
	mlgLat := lv.MLGTrace.Find("model_prediction").Duration()
	if got := lv.ModelLatency + lv.LayerOverhead + lv.GPUOverhead; got != mlgLat {
		t.Fatalf("overhead decomposition %v != M/L/G latency %v", got, mlgLat)
	}
}

// Layer-level profiling overhead at batch 256 must reproduce the paper's
// magnitude: 157ms over ~234 layers (~0.67ms/layer).
func TestLayerOverheadMatchesPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("batch-256 run")
	}
	s := newSession()
	g := resnetGraph(t, 256)
	lv, err := s.LeveledProfile(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lv.LayerOverhead < 100*time.Millisecond || lv.LayerOverhead > 220*time.Millisecond {
		t.Fatalf("layer overhead = %v, paper measures 157ms", lv.LayerOverhead)
	}
}

// GPU metric collection (DRAM counters) must slow the run dramatically —
// the paper reports >100x for memory metrics.
func TestMetricProfilingIsExpensive(t *testing.T) {
	s := newSession()
	// Measured at M/G so the layer profiler's own overhead doesn't
	// dilute the replay cost.
	plain, err := s.Profile(resnetGraph(t, 16), Options{Levels: MG})
	if err != nil {
		t.Fatal(err)
	}
	withMetrics, err := s.Profile(resnetGraph(t, 16), Options{Levels: MG, GPUMetrics: cupti.StandardMetrics})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(withMetrics.ModelSpan.Duration()) / float64(plain.ModelSpan.Duration())
	if ratio < 15 {
		t.Fatalf("metric profiling slowdown = %.1fx, want substantial (paper: >100x on kernel time)", ratio)
	}
}

func TestCorrelateIdempotentOnEmptyTrace(t *testing.T) {
	for _, c := range correlators {
		tr := &trace.Trace{}
		c.run(tr) // must not panic
		if Ambiguous(tr) {
			t.Fatalf("%s: empty trace ambiguous", c.name)
		}
	}
}

func TestCorrelateFallbackWithoutLaunchSpans(t *testing.T) {
	// Activity-only capture: exec spans must fall back to containment.
	for _, c := range correlators {
		tr := &trace.Trace{Spans: []*trace.Span{
			{ID: 1, Level: trace.LevelModel, Name: "model_prediction", Begin: 0, End: 1000},
			{ID: 2, Level: trace.LevelKernel, Kind: trace.KindExec, Name: "k", Begin: 100, End: 200, CorrelationID: 7},
		}}
		c.run(tr)
		if tr.Spans[1].ParentID != 1 {
			t.Fatalf("%s: exec span parent = %d, want model span", c.name, tr.Spans[1].ParentID)
		}
	}
}
