package analysis

import (
	"math/rand"
	"testing"

	"xsp/internal/gpu"
	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

func TestOnlineResetAndRepublish(t *testing.T) {
	tr := workload.SyntheticTrace(workload.SyntheticSpec{
		Spans: 800, LayerTypes: onlineLayerTypes, KernelMetrics: true,
		MemcpysPerLayer: 2, Seed: 31,
	})
	eng := NewOnline(OnlineOptions{Spec: gpu.TeslaV100})
	eng.Publish(tr.Spans...)
	first := eng.Snapshot()
	if first.Spans != int64(len(tr.Spans)) {
		t.Fatalf("observed %d spans, fed %d", first.Spans, len(tr.Spans))
	}
	if len(first.Layers.Layers) == 0 || first.Roofline.Kernels == 0 || len(first.Memcpy.Rows) == 0 {
		t.Fatalf("empty analyses after a full trace: %+v", first)
	}

	eng.Reset()
	empty := eng.Snapshot()
	if empty.Spans != 0 || len(empty.Layers.Layers) != 0 || empty.Roofline.Kernels != 0 ||
		len(empty.Memcpy.Rows) != 0 || empty.LaunchGaps.Kernels != 0 {
		t.Fatalf("reset engine not empty: %+v", empty)
	}

	// Feeding again after Reset must reproduce the first snapshot exactly.
	eng.Publish(tr.Spans...)
	second := eng.Snapshot()
	if second.Spans != first.Spans || second.LaunchGaps.Kernels != first.LaunchGaps.Kernels ||
		second.Roofline.Kernels != first.Roofline.Kernels ||
		second.Layers.TotalMS != first.Layers.TotalMS ||
		second.Memcpy.TotalMS != first.Memcpy.TotalMS {
		t.Fatalf("replay after Reset diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestOnlinePendingBounds pins the bounded-memory contract: unmatched
// launches and execs are capped at MaxPending each and evictions are
// counted, so a stream that never pairs cannot grow the engine without
// bound.
func TestOnlinePendingBounds(t *testing.T) {
	eng := NewOnline(OnlineOptions{Spec: gpu.TeslaV100, MaxPending: 4})
	for i := 1; i <= 20; i++ {
		eng.ObserveSpan(&trace.Span{
			Level: trace.LevelKernel, Kind: trace.KindLaunch,
			Name: "cudaLaunchKernel", CorrelationID: uint64(i),
			Begin: 0, End: 1,
		})
	}
	for i := 100; i < 120; i++ {
		eng.ObserveSpan(&trace.Span{
			Level: trace.LevelKernel, Kind: trace.KindExec,
			Name: "k", CorrelationID: uint64(i),
			Begin: 2, End: 3,
		})
	}
	g := eng.LaunchGapsSnapshot()
	if g.PendingLaunches > 4 || g.PendingExecs > 4 {
		t.Fatalf("pending state exceeded MaxPending=4: %+v", g)
	}
	if g.EvictedLaunches != 16 || g.EvictedExecs != 16 {
		t.Fatalf("expected 16/16 evictions, got %d/%d", g.EvictedLaunches, g.EvictedExecs)
	}
	if g.Kernels != 0 {
		t.Fatalf("nothing paired, yet %d gaps recorded", g.Kernels)
	}

	// The surviving pending execs (corr 116..119) pair when their launches
	// arrive late.
	for i := 116; i < 120; i++ {
		eng.ObserveSpan(&trace.Span{
			Level: trace.LevelKernel, Kind: trace.KindLaunch,
			Name: "cudaLaunchKernel", CorrelationID: uint64(i),
			Begin: 0, End: 1,
		})
	}
	if g = eng.LaunchGapsSnapshot(); g.Kernels != 4 {
		t.Fatalf("late launches should pair the surviving execs: %+v", g)
	}
}

func TestOnlineTopGapsBounded(t *testing.T) {
	eng := NewOnline(OnlineOptions{Spec: gpu.TeslaV100, TopGaps: 3})
	for i := 1; i <= 50; i++ {
		eng.ObserveSpan(&trace.Span{
			Level: trace.LevelKernel, Kind: trace.KindLaunch,
			Name: "cudaLaunchKernel", CorrelationID: uint64(i),
			Begin: 0, End: 1,
		})
		eng.ObserveSpan(&trace.Span{
			Level: trace.LevelKernel, Kind: trace.KindExec,
			Name: "k", CorrelationID: uint64(i),
			Begin: vclock.Time(1 + i), End: vclock.Time(2 + i),
		})
	}
	g := eng.LaunchGapsSnapshot()
	if len(g.Top) != 3 {
		t.Fatalf("TopGaps=3 kept %d rows", len(g.Top))
	}
	// Largest gaps first: corr 50, 49, 48 → gaps 50, 49, 48 virtual ns.
	for i, want := range []float64{50, 49, 48} {
		if got := g.Top[i].QueueMS * 1e6; got < want-0.5 || got > want+0.5 {
			t.Fatalf("top gap %d = %v ns, want %v", i, got, want)
		}
	}
	if g.Kernels != 50 {
		t.Fatalf("gap count %d, want 50", g.Kernels)
	}
}

func BenchmarkOnlineAnalysis(b *testing.B) {
	tr := workload.SyntheticTrace(workload.SyntheticSpec{
		Spans: 100_000, LayerTypes: onlineLayerTypes, KernelMetrics: true,
		MemcpysPerLayer: 2, Seed: 41,
	})
	spans := tr.Spans
	// One op is one span in both arms: what the run arm saves is the lock.
	b.Run("span", func(b *testing.B) {
		eng := NewOnline(OnlineOptions{Spec: gpu.TeslaV100})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.ObserveSpan(spans[i%len(spans)])
		}
	})
	// Runs of random length up to a server batch, as a drain releases them.
	b.Run("runs", func(b *testing.B) {
		eng := NewOnline(OnlineOptions{Spec: gpu.TeslaV100})
		rng := rand.New(rand.NewSource(41))
		b.ReportAllocs()
		b.ResetTimer()
		for done, at := 0, 0; done < b.N; {
			n := min(1+rng.Intn(1024), b.N-done, len(spans)-at)
			eng.ObserveSpans(spans[at : at+n])
			done, at = done+n, (at+n)%len(spans)
		}
	})
}
