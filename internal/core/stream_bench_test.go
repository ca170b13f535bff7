package core_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"xsp/internal/core"
	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

// BenchmarkStreamCorrelate measures correlate-as-you-ingest at 100k spans
// arriving in 1000-span batches. One op is the whole stream:
//
//   - stream: StreamCorrelator consumes each batch online and Flushes
//     once at the end — per-batch cost is the incremental stack advance;
//   - sparse: the same with random 64-bit correlation ids, and
//     sparse-retained with them behind a CorrRetain horizon;
//   - stream-reordered: the same with cross-shard skew absorbed by the
//     reorder buffer;
//   - rebatch: the pre-streaming pattern, a full batch correlation (the
//     sweep-or-tree PathAuto) after every batch — per-batch cost re-sorts
//     and re-sweeps everything ingested so far, so it keeps growing with
//     the trace while the stream's per-batch cost stays flat (the whole
//     100k-span stream costs about one 100k batch correlation);
//   - straggler-repair: one fixed-width window of spans withheld and
//     delivered last, timing only the Flush that repairs them — ns/op
//     stays roughly flat from 25k to 100k total spans because the repair
//     region is the window's population, not the accumulated trace (the
//     pre-repair design re-ran batch correlation over everything here);
//   - checkpointed: the full stream with StreamOptions.Retain folding
//     finalized history into checkpoint segments as it feeds — the
//     live-spans metric (asserted bounded) is the steady-state memory a
//     long-running server holds, against 100k spans fed.
func BenchmarkStreamCorrelate(b *testing.B) {
	const n = 100_000
	const batchSize = 1_000
	mkBatches := func(skew vclock.Duration) [][]*trace.Span {
		return workload.StreamingArrivals(workload.StreamingSpec{
			Trace:     workload.SyntheticSpec{Spans: n, Seed: 42},
			BatchSize: batchSize, ReorderSkew: skew, Seed: 42,
		})
	}
	resetParents := func(batches [][]*trace.Span) {
		for _, batch := range batches {
			for _, s := range batch {
				s.ParentID = 0
			}
		}
	}

	b.Run("stream/100k", func(b *testing.B) {
		batches := mkBatches(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resetParents(batches)
			sc := core.NewStreamCorrelator(core.StreamOptions{})
			b.StartTimer()
			for _, batch := range batches {
				sc.Feed(batch...)
			}
			sc.Flush()
		}
	})
	// The stream arm with random 64-bit correlation ids: the correlation
	// table's spill path, which the generator's dense ids never reach — as it
	// grows from empty to every launch of the stream, and as xsp-server runs
	// it, a window behind a retention horizon (-corr-retain).
	for _, arm := range []struct {
		name string
		opts core.StreamOptions
	}{
		{"sparse/100k", core.StreamOptions{}},
		{"sparse-retained/100k", core.StreamOptions{CorrRetain: 65_536}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			batches := mkBatches(0)
			corrRemaps(42)[2].apply(batches)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				resetParents(batches)
				sc := core.NewStreamCorrelator(arm.opts)
				b.StartTimer()
				for _, batch := range batches {
					sc.Feed(batch...)
				}
				sc.Flush()
			}
		})
	}
	b.Run("stream-reordered/100k", func(b *testing.B) {
		batches := mkBatches(48)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resetParents(batches)
			sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 48})
			b.StartTimer()
			for _, batch := range batches {
				sc.Feed(batch...)
			}
			sc.Flush()
		}
	})
	b.Run("rebatch/100k", func(b *testing.B) {
		batches := mkBatches(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resetParents(batches)
			tr := &trace.Trace{Spans: make([]*trace.Span, 0, n)}
			b.StartTimer()
			for _, batch := range batches {
				tr.Spans = append(tr.Spans, batch...)
				core.CorrelateBy(tr, core.PathAuto)
			}
		}
	})

	// Repair cost must track the straggler window, not the stream length:
	// the same 4096-unit window withheld from streams of growing size
	// repairs the same ns/op and the same repaired-spans count. The window
	// sits a fixed virtual-time distance before each stream's end — the
	// realistic straggler: recent spans the reorder window just missed.
	for _, size := range []int{25_000, 50_000, 100_000} {
		size := size
		b.Run(fmt.Sprintf("straggler-repair/%dk", size/1000), func(b *testing.B) {
			spec := workload.SyntheticSpec{Spans: size, Seed: 42}
			const window, gap = vclock.Duration(4_096), vclock.Duration(2_048)
			probe := workload.SyntheticTrace(spec)
			probe.SortByBegin()
			last := probe.Spans[len(probe.Spans)-1].Begin
			batches := workload.StreamingArrivals(workload.StreamingSpec{
				Trace:     spec,
				BatchSize: batchSize, StragglerWindow: window, Seed: 42,
				StragglerPos: 1 - float64(window+gap)/float64(last),
			})
			b.ReportAllocs()
			var repaired int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				resetParents(batches)
				sc := core.NewStreamCorrelator(core.StreamOptions{})
				for _, batch := range batches {
					sc.Feed(batch...)
				}
				b.StartTimer()
				sc.Flush() // times exactly the straggler repair
				b.StopTimer()
				st := sc.Stats()
				if st.Stragglers == 0 {
					b.Fatal("straggler window delivered no stragglers")
				}
				repaired = st.Repaired
			}
			b.ReportMetric(float64(repaired), "repaired-spans")
		})
	}

	// Sustained pipelined overlap: three layer timelines cross for the
	// whole stream. Before window chaining the degraded window never
	// closed, so the fold horizon stalled at its start and the live state
	// grew with the stream; with the size bound it stays within the same
	// order as the non-overlapped checkpointed run. The live-spans metric
	// is the assertion.
	b.Run("sustained-overlap/100k", func(b *testing.B) {
		// Same reorder window as checkpointed/100k: sweep-order ties
		// across the three streams need the buffer, or a single early
		// straggler pins the fold horizon until Flush by design.
		batches := workload.StreamingArrivals(workload.StreamingSpec{
			Trace:     workload.SyntheticSpec{Spans: n, Streams: 3, Seed: 42},
			BatchSize: batchSize, ReorderSkew: 48, Seed: 42,
		})
		b.ReportAllocs()
		var live, chained int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resetParents(batches)
			sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 48, Retain: 4_096}.WithMaxWindowSpans(512))
			b.StartTimer()
			for _, batch := range batches {
				sc.Feed(batch...)
			}
			st := sc.Stats() // steady state, before the final Flush
			sc.Flush()
			b.StopTimer()
			live, chained = st.Live, st.WindowsChained
			if chained == 0 {
				b.Fatal("sustained overlap never chained a window")
			}
			if live > n/10 {
				b.Fatalf("live state %d spans of %d fed — fold horizon stalled", live, n)
			}
		}
		b.ReportMetric(float64(live), "live-spans")
		b.ReportMetric(float64(chained), "windows-chained")
	})

	// Geometric compaction: continuous folding (small Retain, so nearly
	// every autoFold emits a segment) must keep the segment ladder
	// logarithmic while paying amortized, not O(total), merge cost — the
	// pre-geometric schedule re-merged every checkpointed span each 64
	// folds.
	b.Run("geometric-compaction/100k", func(b *testing.B) {
		batches := mkBatches(0)
		b.ReportAllocs()
		var segments, compactions int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resetParents(batches)
			sc := core.NewStreamCorrelator(core.StreamOptions{Retain: 512})
			maxSegments := 0
			b.StartTimer()
			for _, batch := range batches {
				sc.Feed(batch...)
				if st := sc.Stats(); st.Segments > maxSegments {
					maxSegments = st.Segments
				}
			}
			sc.Flush()
			b.StopTimer()
			st := sc.Stats()
			segments, compactions = maxSegments, st.Compactions
			if compactions == 0 {
				b.Fatal("continuous folding never compacted")
			}
			if maxSegments > 24 {
				b.Fatalf("segment ladder reached %d segments", maxSegments)
			}
		}
		b.ReportMetric(float64(segments), "peak-segments")
		b.ReportMetric(float64(compactions), "compactions")
	})

	b.Run("checkpointed/100k", func(b *testing.B) {
		const retain = 4_096
		batches := mkBatches(48)
		b.ReportAllocs()
		var live, checkpointed int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resetParents(batches)
			sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 48, Retain: retain})
			b.StartTimer()
			for _, batch := range batches {
				sc.Feed(batch...)
			}
			st := sc.Stats() // steady state, before the final Flush
			sc.Flush()
			b.StopTimer()
			live, checkpointed = st.Live, st.Checkpointed
			if checkpointed == 0 {
				b.Fatal("checkpointing stream never folded")
			}
			// The live, repairable state a long-running server would hold:
			// spans within Retain+ReorderWindow of the tip plus the
			// un-amortized fold tail — far below the stream's length.
			if live > n/10 {
				b.Fatalf("live state %d spans of %d fed — not bounded", live, n)
			}
		}
		b.ReportMetric(float64(live), "live-spans")
		b.ReportMetric(float64(checkpointed), "checkpointed-spans")
	})
}

// BenchmarkFoldCompact times the checkpoint stages alone — fold (evict the
// finalized spans, retire them from the live state, build the segment) and
// compact (the geometric ladder's merges) — on a nested stream at the
// ram_nested shape: reorder window 64, 1024-span batches with a fold after
// each, header-only isolation, payload-carrying spans, and over a million
// spans so the ladder reaches its ~10 levels and a span rides ~10 merges.
// Retain is zero and every fold is an explicit Checkpoint, so the clock and
// the allocation counters run over exactly the two stages (auto-folds
// would hide inside Feed); the horizon sits 10µs nearer the tip than the
// server's, which moves a fold's population by a few hundred spans and
// nothing else. One op is the whole stream; the per-span metrics are
// stage cost over spans fed.
func BenchmarkFoldCompact(b *testing.B) {
	spec := workload.StreamingSpec{
		Trace:     payloadTrace(131_072, 42),
		BatchSize: 1_024, ReorderSkew: 48, Repeat: 9, Seed: 42,
	}
	var stats core.StreamStats
	var busy time.Duration
	var allocs, bytes uint64
	for i := 0; i < b.N; i++ {
		sc := core.NewStreamCorrelator(core.StreamOptions{Isolated: true, ReorderWindow: 64, CorrRetain: 100_000})
		var before, after runtime.MemStats
		workload.Stream(spec, func(batch []*trace.Span) bool {
			sc.Feed(batch...)
			runtime.ReadMemStats(&before)
			start := time.Now()
			sc.Checkpoint()
			busy += time.Since(start)
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
			return true
		})
		stats = sc.Stats()
		if stats.Fed < 1_000_000 || stats.Compactions == 0 || stats.Live > stats.Fed/100 {
			b.Fatalf("not the ram_nested ladder: %+v", stats)
		}
	}
	spans := float64(b.N) * float64(stats.Fed)
	b.ReportMetric(float64(busy.Nanoseconds())/spans, "ns/span")
	b.ReportMetric(float64(bytes)/spans, "B/span")
	b.ReportMetric(float64(allocs)/spans, "allocs/span")
	b.ReportMetric(float64(stats.Compactions), "compactions")
	b.ReportMetric(float64(stats.Segments), "segments")
}

// BenchmarkStragglerReopen times one deep-straggler repair — a straggler
// whose window overlaps ~2k folded spans, fed behind the checkpoint horizon
// — over a folded history of 128k and of 1M spans: the cost of reaching
// behind the checkpoint, which must follow the window and not the history.
// The history is a nested stream folded by the ordinary cadence (so the
// ladder is the geometric one); every op feeds one fresh kernel-level
// straggler at its own position in the history, and the untimed Checkpoint
// after it refolds what the repair took live. pulled-spans/op is what the
// repair moved out of the checkpoint.
func BenchmarkStragglerReopen(b *testing.B) {
	for _, size := range []struct {
		name  string
		spans int
	}{{"128k", 131_072}, {"1M", 1_048_576}} {
		b.Run(size.name, func(b *testing.B) {
			batches := workload.StreamingArrivals(workload.StreamingSpec{
				Trace: workload.SyntheticSpec{Spans: size.spans, Seed: 16}, BatchSize: 1_024,
			})
			sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 64, Retain: 10_000})
			var end vclock.Time
			for _, batch := range batches {
				sc.Feed(batch...)
				end = max(end, batch[len(batch)-1].Begin)
			}
			sc.Checkpoint()
			width := end * 2_048 / vclock.Time(size.spans) // ~2k spans of the stream
			pulled := 0
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				before := sc.Stats()
				if before.Checkpointed < size.spans*9/10 {
					b.Fatalf("history not folded: %+v", before)
				}
				at := end / 10 * vclock.Time(1+i*5%8) // spread over the history, clear of the live tail
				b.StartTimer()
				sc.Feed(&trace.Span{ID: uint64(1<<40 + i), Level: trace.LevelKernel, Name: "late", Begin: at, End: at + width})
				b.StopTimer()
				after := sc.Stats()
				if after.Reopens != before.Reopens+1 || after.Repaired-before.Repaired < 1_024 {
					b.Fatalf("not a deep repair of a ~2k-span window: %+v after %+v", after, before)
				}
				pulled += after.Live - before.Live - 1
				sc.Checkpoint()
			}
			b.ReportMetric(float64(pulled)/float64(b.N), "pulled-spans/op")
		})
	}
}

// BenchmarkRepairTail is one straggler repair whose window stays put — a
// kernel span the same stretch of stream behind the tail at both sizes, far
// enough to reach folded spans, where a pipelined stream's stragglers land —
// over 50k and 200k folded spans. What the repair re-correlates is the same
// at both sizes (repaired/op); what grows with the history is the walk that
// looks for the folded spans the window overlaps (ckptSegment.overlapping),
// which steps over every window of records its directory rules out, so it
// costs the ladder's runs and windows, not its records, and ns/op stays put.
func BenchmarkRepairTail(b *testing.B) {
	for _, size := range []struct {
		name  string
		spans int
	}{{"50k", 50_000}, {"200k", 200_000}} {
		b.Run(size.name, func(b *testing.B) {
			batches := workload.StreamingArrivals(workload.StreamingSpec{
				Trace: workload.SyntheticSpec{Spans: size.spans, Streams: 3, Seed: 16}, BatchSize: 1_024,
			})
			sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 64, Retain: 2_000})
			var end vclock.Time
			for _, batch := range batches {
				sc.Feed(batch...)
				end = max(end, batch[len(batch)-1].Begin)
			}
			if st := sc.Stats(); st.Checkpointed < size.spans*3/4 {
				b.Fatalf("history not folded: %+v", st)
			}
			at := end - 20_000 // behind the newest folded span's end
			repaired := 0
			// The feed's garbage is collected here, not in the timed loop: a
			// mark phase left running puts a write barrier on every pointer
			// the repair moves.
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := sc.Stats()
				sc.Feed(&trace.Span{ID: uint64(1<<40 + i), Level: trace.LevelKernel, Name: "late", Begin: at, End: at + 16})
				after := sc.Stats()
				if after.Stragglers != before.Stragglers+1 || (i == 0 && after.Reopens != before.Reopens+1) {
					b.Fatalf("the late span was no straggler reaching the checkpoint: %+v after %+v", after, before)
				}
				repaired += after.Repaired - before.Repaired
			}
			b.ReportMetric(float64(repaired)/float64(b.N), "repaired/op")
		})
	}
}
