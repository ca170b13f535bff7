package core_test

import (
	"fmt"

	"xsp/internal/core"
	"xsp/internal/gpu"
	"xsp/internal/modelzoo"
	"xsp/internal/tensorflow"
	"xsp/internal/trace"
)

// Parent reconstruction recovers the links the disjoint profilers could not
// record: the layer nests into the model by containment, and the kernel
// execution span inherits its launch span's parent through the shared
// correlation id. A profiled trace is correlated the way xsp-server
// correlates a stream: fed to a StreamCorrelator as one batch, then
// flushed. Correlate, the batch reference, assigns the same parents.
func ExampleCorrelate() {
	tr := &trace.Trace{Spans: []*trace.Span{
		{ID: 1, Level: trace.LevelModel, Name: "model_prediction", Begin: 0, End: 100},
		{ID: 2, Level: trace.LevelLayer, Name: "conv1", Begin: 5, End: 40},
		{ID: 3, Level: trace.LevelKernel, Kind: trace.KindLaunch,
			Name: "cudaLaunchKernel", Begin: 10, End: 12, CorrelationID: 7},
		{ID: 4, Level: trace.LevelKernel, Kind: trace.KindExec,
			Name: "volta_scudnn_128x64", Begin: 50, End: 80, CorrelationID: 7},
	}}

	sc := core.NewStreamCorrelator(core.StreamOptions{})
	sc.Feed(tr.Spans...)
	sc.Flush()

	byID := tr.SpansByID()
	for _, s := range tr.Spans {
		parent := "-"
		if p := byID[s.ParentID]; p != nil {
			parent = p.Name
		}
		fmt.Printf("%-19s parent=%s\n", s.Name, parent)
	}
	// Output:
	// model_prediction    parent=-
	// conv1               parent=model_prediction
	// cudaLaunchKernel    parent=conv1
	// volta_scudnn_128x64 parent=conv1
}

// Leveled experimentation picks a run's levels by its LevelSet: Profile
// builds a tracer for each level in the set and none for the others, so a
// level outside the set costs nothing and leaves no spans.
func ExampleLevelSet() {
	m, _ := modelzoo.ByName("MLPerf_ResNet50_v1.5")
	s := core.NewSession(tensorflow.New(), gpu.TeslaV100)
	for _, levels := range []core.LevelSet{core.M, core.ML, core.MLG} {
		g, err := m.Graph(1)
		if err != nil {
			panic(err)
		}
		res, err := s.Profile(g, core.Options{Levels: levels})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-5s %v\n", levels, res.Trace.Levels())
	}
	// Output:
	// M     [application model]
	// M/L   [application model layer]
	// M/L/G [application model layer kernel]
}
