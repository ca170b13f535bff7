package analysis

import (
	"testing"

	"xsp/internal/core"
	"xsp/internal/gpu"
	"xsp/internal/modelzoo"
	"xsp/internal/tensorflow"
	"xsp/internal/trace"
)

// profileResNet returns an M/L/G profile of ResNet50 at the batch size.
func profileResNet(t *testing.T, batch int, pipelined bool) *trace.Trace {
	t.Helper()
	m, _ := modelzoo.ByName("MLPerf_ResNet50_v1.5")
	s := core.NewSession(tensorflow.New(), gpu.TeslaV100)
	g, err := m.Graph(batch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Profile(g, core.Options{Levels: core.MLG, Pipelined: pipelined})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// gapEngine returns an engine that observed the whole profile.
func gapEngine(t *testing.T, batch int, pipelined bool) *Online {
	t.Helper()
	eng := NewOnline(OnlineOptions{Spec: gpu.TeslaV100})
	eng.ObserveSpans(profileResNet(t, batch, pipelined).Spans)
	return eng
}

func TestLaunchGapsCoverKernels(t *testing.T) {
	tr := profileResNet(t, 16, false)
	eng := NewOnline(OnlineOptions{Spec: gpu.TeslaV100})
	eng.ObserveSpans(tr.Spans)
	g := eng.LaunchGapsSnapshot()
	kernels := 0
	for _, sp := range tr.Spans {
		if isKernelExec(sp) {
			kernels++
		}
	}
	if g.Kernels < 200 || g.Kernels != kernels {
		t.Fatalf("gaps for %d kernels, the profile executes %d", g.Kernels, kernels)
	}
	if g.PendingExecs != 0 {
		t.Fatalf("every exec pairs with its launch, yet %d wait", g.PendingExecs)
	}
	for _, r := range g.Top {
		if r.QueueMS < 0 || r.LayerIndex != -1 {
			t.Fatalf("top gap %+v: negative delay or a layer the engine cannot know", r)
		}
	}
}

// Pipelined execution at a large batch lets the host run ahead of the
// device, so queueing delays grow; serialized per-layer profiling drains
// the queue at every layer boundary.
func TestQueueDelayGrowsWhenPipelined(t *testing.T) {
	serialized := gapEngine(t, 256, false).LaunchGapsSnapshot()
	pipelined := gapEngine(t, 256, true).LaunchGapsSnapshot()
	if pipelined.TotalMS <= serialized.TotalMS {
		t.Fatalf("pipelined queue delay %v ms should exceed serialized %v ms",
			pipelined.TotalMS, serialized.TotalMS)
	}
	if pipelined.Kernels == 0 || pipelined.MaxMS <= 0 {
		t.Fatalf("summary malformed: %+v", pipelined.QueueDelaySummary)
	}
	if pipelined.WaitShare <= 0 || pipelined.WaitShare > 1 {
		t.Fatalf("wait share = %v", pipelined.WaitShare)
	}
}

func TestTopLaunchGaps(t *testing.T) {
	g := gapEngine(t, 256, true).LaunchGapsSnapshot()
	if len(g.Top) != defaultTopGaps {
		t.Fatalf("top = %d, want %d", len(g.Top), defaultTopGaps)
	}
	for i := 1; i < len(g.Top); i++ {
		if g.Top[i].QueueMS > g.Top[i-1].QueueMS {
			t.Fatal("top gaps not sorted")
		}
	}
	if g.Top[0].QueueMS != g.MaxMS {
		t.Fatalf("largest top gap %v, max %v", g.Top[0].QueueMS, g.MaxMS)
	}
}
