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
	eng.ObserveSpans(tr.Spans)
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
	eng.ObserveSpans(tr.Spans)
	second := eng.Snapshot()
	if second.Spans != first.Spans || second.LaunchGaps.Kernels != first.LaunchGaps.Kernels ||
		second.Roofline.Kernels != first.Roofline.Kernels ||
		second.Layers.TotalMS != first.Layers.TotalMS ||
		second.Memcpy.TotalMS != first.Memcpy.TotalMS {
		t.Fatalf("replay after Reset diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestOnlinePendingBounds pins the bounded-memory contract: unmatched
// launches and execs are capped at maxPending each and evictions are
// counted, so a stream that never pairs cannot grow the engine without
// bound. The colliding arm gives every correlation id one slot of the launch
// table, so the table's spill and growth run under the same FIFO.
func TestOnlinePendingBounds(t *testing.T) {
	for _, arm := range []struct {
		name string
		corr func(i int) uint64
	}{
		{"dense", func(i int) uint64 { return uint64(i) }},
		{"colliding", func(i int) uint64 { return uint64(i) << 20 }},
	} {
		t.Run(arm.name, func(t *testing.T) {
			eng := NewOnline(OnlineOptions{Spec: gpu.TeslaV100})
			eng.maxPending = 4
			for i := 1; i <= 20; i++ {
				eng.ObserveSpan(&trace.Span{
					Level: trace.LevelKernel, Kind: trace.KindLaunch,
					Name: "cudaLaunchKernel", CorrelationID: arm.corr(i),
					Begin: 0, End: 1,
				})
			}
			for i := 100; i < 120; i++ {
				eng.ObserveSpan(&trace.Span{
					Level: trace.LevelKernel, Kind: trace.KindExec,
					Name: "k", CorrelationID: arm.corr(i),
					Begin: 2, End: 3,
				})
			}
			g := eng.LaunchGapsSnapshot()
			if g.PendingLaunches > 4 || g.PendingExecs > 4 {
				t.Fatalf("pending state exceeded maxPending=4: %+v", g)
			}
			if g.EvictedLaunches != 16 || g.EvictedExecs != 16 {
				t.Fatalf("expected 16/16 evictions, got %d/%d", g.EvictedLaunches, g.EvictedExecs)
			}
			if g.Kernels != 0 {
				t.Fatalf("nothing paired, yet %d gaps recorded", g.Kernels)
			}

			// The surviving pending execs (corr 116..119) pair when their
			// launches arrive late.
			for i := 116; i < 120; i++ {
				eng.ObserveSpan(&trace.Span{
					Level: trace.LevelKernel, Kind: trace.KindLaunch,
					Name: "cudaLaunchKernel", CorrelationID: arm.corr(i),
					Begin: 0, End: 1,
				})
			}
			if g = eng.LaunchGapsSnapshot(); g.Kernels != 4 {
				t.Fatalf("late launches should pair the surviving execs: %+v", g)
			}
		})
	}
}

// TestOnlinePendingQueueBounded pins the bound the Online doc promises for
// the waiting execs' FIFO. An exec that waited and then paired with its late
// launch used to leave its id queued for good — the queue shrank only when an
// eviction popped it — so a stream whose execs precede their launches grew it
// by an id a pair while one exec at a time waited. A million such pairs at
// maxPending 4 leave at most 2·4+64 refs queued, and every pair still counts
// its gap as the batch reference does. The batch side is summed over
// 64k-pair chunks: correlation ids do not cross a chunk, so the sum is the
// whole trace's.
func TestOnlinePendingQueueBounded(t *testing.T) {
	const pairs, chunk = 1 << 20, 1 << 16
	eng := NewOnline(OnlineOptions{Spec: gpu.TeslaV100})
	eng.maxPending = 4
	var want QueueDelaySummary
	spans := make([]trace.Span, 2*chunk)
	run := make([]*trace.Span, 2*chunk)
	for base := 0; base < pairs; base += chunk {
		for i := 0; i < chunk; i++ {
			corr := uint64(base+i) + 1
			at := vclock.Time(10 * corr)
			spans[2*i] = trace.Span{ // the exec first, as a straggler launch or a replay delivers it
				ID: 2 * corr, Level: trace.LevelKernel, Kind: trace.KindExec, Name: "k",
				CorrelationID: corr, Begin: at + vclock.Time(i%3), End: at + 5,
			}
			spans[2*i+1] = trace.Span{
				ID: 2*corr + 1, Level: trace.LevelKernel, Kind: trace.KindLaunch, Name: "cudaLaunchKernel",
				CorrelationID: corr, Begin: at - 1, End: at,
			}
			run[2*i], run[2*i+1] = &spans[2*i], &spans[2*i+1]
		}
		eng.ObserveSpans(run)
		if n := len(eng.pendQ); n > 2*4+64 {
			t.Fatalf("after %d pairs the exec FIFO holds %d refs, at most one exec waiting at a time", base+chunk, n)
		}
		q := oracleQueueDelay(&trace.Trace{Spans: run})
		want.Kernels += q.Kernels
		want.Waited += q.Waited
		want.TotalMS += q.TotalMS
	}
	g := eng.LaunchGapsSnapshot()
	if g.Kernels != pairs || g.Kernels != want.Kernels || g.Waited != want.Waited || !relClose(g.TotalMS, want.TotalMS) {
		t.Fatalf("online gaps %d (%d waited, %v ms), batch %d (%d waited, %v ms)",
			g.Kernels, g.Waited, g.TotalMS, want.Kernels, want.Waited, want.TotalMS)
	}
	if g.PendingExecs != 0 || g.EvictedExecs != 0 {
		t.Fatalf("every exec paired, yet %d wait and %d were evicted", g.PendingExecs, g.EvictedExecs)
	}
}

func TestOnlineTopGapsBounded(t *testing.T) {
	eng := NewOnline(OnlineOptions{Spec: gpu.TeslaV100})
	eng.topK = 3
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
		t.Fatalf("topK=3 kept %d rows", len(g.Top))
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
	runs := func(spans []*trace.Span) func(b *testing.B) {
		return func(b *testing.B) {
			eng := NewOnline(OnlineOptions{Spec: gpu.TeslaV100})
			rng := rand.New(rand.NewSource(41))
			b.ReportAllocs()
			b.ResetTimer()
			for done, at := 0, 0; done < b.N; {
				n := min(1+rng.Intn(1024), b.N-done, len(spans)-at)
				eng.ObserveSpans(spans[at : at+n])
				done, at = done+n, (at+n)%len(spans)
			}
		}
	}
	b.Run("runs", runs(spans))
	// The runs arm over the same trace with random 64-bit correlation ids:
	// the launch table's spill path, which dense ids never reach.
	sparse := workload.SyntheticTrace(workload.SyntheticSpec{
		Spans: 100_000, LayerTypes: onlineLayerTypes, KernelMetrics: true,
		MemcpysPerLayer: 2, Seed: 41,
	})
	corrRemaps(41)[2].apply([][]*trace.Span{sparse.Spans})
	b.Run("sparse", runs(sparse.Spans))
}
