package trace_test

import (
	"fmt"

	"xsp/internal/trace"
)

// One tracer per profiler, all publishing into one in-memory tracing
// server; Trace assembles the begin-sorted timeline.
func ExampleNewTracer() {
	mem := trace.NewMemory()

	model := trace.NewTracer("pipeline", trace.LevelModel, mem)
	layers := trace.NewTracer("framework", trace.LevelLayer, mem)

	predict := model.StartSpan("model_prediction", 0)
	conv := layers.StartSpan("conv1", 5)
	layers.FinishSpan(conv, 40)
	relu := layers.StartSpan("relu1", 45)
	layers.FinishSpan(relu, 60)
	model.FinishSpan(predict, 100)

	for _, s := range mem.Trace().Spans {
		fmt.Printf("%-9s %-16s [%3d,%3d)\n", s.Level, s.Name, s.Begin, s.End)
	}
	// Output:
	// model     model_prediction [  0,100)
	// layer     conv1            [  5, 40)
	// layer     relu1            [ 45, 60)
}

// Trace shares span pointers with the collector, so an edit made through
// one snapshot — core.Correlate's ParentID links — is visible in the next;
// a caller that wants a private copy clones the spans (Span.Clone).
func ExampleMemory_Trace() {
	mem := trace.NewMemory()
	mem.Publish(&trace.Span{ID: 1, Name: "conv1", Begin: 0, End: 10})

	mem.Trace().Spans[0].ParentID = 7
	own := mem.Trace().Spans[0].Clone()
	own.Name = "renamed"

	fmt.Println("parent:", mem.Trace().Spans[0].ParentID)
	fmt.Println("collector:", mem.Trace().Spans[0].Name)
	// Output:
	// parent: 7
	// collector: conv1
}
