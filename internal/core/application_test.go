package core

import (
	"testing"
	"time"

	"xsp/internal/gpu"
	"xsp/internal/modelzoo"
	"xsp/internal/tensorflow"
	"xsp/internal/trace"
)

// An application using more than one ML model (the paper's Section III-E
// case): a detector followed by a classifier, profiled into one timeline
// under one application span.
func TestApplicationSpansMultipleModels(t *testing.T) {
	app := NewApplication("video-pipeline")
	s := newSession()

	det, _ := modelzoo.ByName("MLPerf_SSD_MobileNet_v1_300x300")
	dg, err := det.Graph(1)
	if err != nil {
		t.Fatal(err)
	}
	detRes, err := app.Profile(s, dg, Options{Levels: ML})
	if err != nil {
		t.Fatal(err)
	}

	app.Idle(2 * time.Millisecond) // business logic between models

	clsRes, err := app.Profile(s, resnetGraph(t, 4), Options{Levels: MLG})
	if err != nil {
		t.Fatal(err)
	}

	tr := app.Finish()
	root := tr.Find("video-pipeline")
	if root == nil || root.Level != trace.LevelApplication {
		t.Fatal("application span missing")
	}

	// Both predictions nest under the one application span, in order,
	// separated by the idle gap.
	var predictions []*trace.Span
	for _, sp := range tr.Spans {
		if sp.Name == "model_prediction" {
			predictions = append(predictions, sp)
		}
	}
	if len(predictions) != 2 {
		t.Fatalf("predictions = %d, want 2", len(predictions))
	}
	for i, p := range predictions {
		if p.ParentID != root.ID {
			t.Fatalf("prediction %d not under the application span", i)
		}
		if p.Begin < root.Begin || p.End > root.End {
			t.Fatalf("prediction %d outside the application window", i)
		}
	}
	if gap := predictions[1].Begin.Sub(predictions[0].End); gap < 2*time.Millisecond {
		t.Fatalf("idle gap = %v, want >= 2ms", gap)
	}

	// Each Result's model span is its own run's.
	if detRes.ModelSpan.ID == clsRes.ModelSpan.ID {
		t.Fatal("results share a model span")
	}
	// The classifier's kernels are in the application trace too.
	if len(tr.ByLevel(trace.LevelKernel)) < 100 {
		t.Fatal("kernel spans missing from application trace")
	}
}

// An ambiguous first attempt inside an application must not leak into the
// shared collector when XSP re-runs serialized: the first attempt is
// speculative and profiles into a scratch collector, so the application
// trace sees each pipeline step exactly once, not once per attempt.
func TestApplicationSerializedRerunDoesNotDoubleCount(t *testing.T) {
	app := NewApplication("rerun")
	s := newSession()
	res, err := app.Profile(s, resnetGraph(t, 256), Options{Levels: MLG, Pipelined: true, ActivityOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Serialized {
		t.Fatal("profile did not trigger the serialized re-run this regression needs")
	}
	tr := app.Finish()
	counts := map[string]int{}
	for _, sp := range tr.Spans {
		counts[sp.Name]++
	}
	for _, name := range []string{"model_prediction", "input_preprocess", "output_postprocess"} {
		if counts[name] != 1 {
			t.Fatalf("%s appears %d times in the application trace, want 1 (abandoned first attempt leaked)",
				name, counts[name])
		}
	}
}

// The promoted path: an unambiguous first attempt's spans land in the
// shared collector exactly once, with their resolved parents intact.
func TestApplicationPromotesUnambiguousRun(t *testing.T) {
	app := NewApplication("promote")
	s := newSession()
	res, err := app.Profile(s, resnetGraph(t, 4), Options{Levels: MLG})
	if err != nil {
		t.Fatal(err)
	}
	if res.Serialized {
		t.Fatal("unexpected serialized re-run")
	}
	tr := app.Finish()
	if got := len(tr.Spans); got != len(res.Trace.Spans)+1 { // + application root
		t.Fatalf("application trace has %d spans, run had %d", got, len(res.Trace.Spans))
	}
	predict := tr.Find("model_prediction")
	root := tr.Find("promote")
	if predict == nil || root == nil || predict.ParentID != root.ID {
		t.Fatal("promoted run lost its link to the application span")
	}
}

func TestApplicationFinishedRejectsWork(t *testing.T) {
	app := NewApplication("done")
	app.Finish()
	s := newSession()
	if _, err := app.Profile(s, resnetGraph(t, 1), Options{Levels: M}); err == nil {
		t.Fatal("profiling into a finished application should fail")
	}
	// Finish is idempotent.
	tr := app.Finish()
	if len(tr.Spans) != 1 {
		t.Fatalf("spans = %d", len(tr.Spans))
	}
}

// Different sessions (frameworks/systems) can feed one application.
func TestApplicationAcrossSessions(t *testing.T) {
	app := NewApplication("multi-system")
	v100 := NewSession(tensorflow.New(), gpu.TeslaV100)
	p4 := NewSession(tensorflow.New(), gpu.TeslaP4)

	if _, err := app.Profile(v100, resnetGraph(t, 1), Options{Levels: M}); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Profile(p4, resnetGraph(t, 1), Options{Levels: M}); err != nil {
		t.Fatal(err)
	}
	tr := app.Finish()
	var count int
	for _, sp := range tr.Spans {
		if sp.Name == "model_prediction" {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("predictions = %d", count)
	}
}
