package core_test

import (
	"fmt"
	"strings"
	"testing"

	"xsp/internal/core"
	"xsp/internal/segio"
	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

// The checkpointing stream the durable benchmarks share: 50k nested spans
// in 1000-span batches, skewed inside a 48-tick reorder window.
const (
	durableBenchSpans  = 50_000
	durableBenchRetain = vclock.Duration(4_096)
)

func durableBenchBatches(spans int) [][]*trace.Span {
	return workload.StreamingArrivals(workload.StreamingSpec{
		Trace:     workload.SyntheticSpec{Spans: spans, Seed: 42},
		BatchSize: 1_000, ReorderSkew: 48, Seed: 42,
	})
}

func resetParents(batches [][]*trace.Span) {
	for _, batch := range batches {
		for _, s := range batch {
			s.ParentID = 0
		}
	}
}

// feedDurableStore streams batches through a fresh store on fs under the
// given reorder window and returns the closed store's file stats.
func feedDurableStore(tb testing.TB, fs segio.FS, window vclock.Duration, batches [][]*trace.Span) segio.Stats {
	st, rec, err := segio.Open(fs, segio.Options{})
	if err != nil {
		tb.Fatalf("open store: %v", err)
	}
	sc, err := core.RecoverStream(core.StreamOptions{
		ReorderWindow: window, Retain: durableBenchRetain, Store: st,
	}, rec)
	if err != nil {
		tb.Fatalf("recover empty store: %v", err)
	}
	for i, batch := range batches {
		if err := sc.FeedLogged(uint64(i+1), batch...); err != nil {
			tb.Fatalf("batch %d refused: %v", i+1, err)
		}
	}
	sc.Flush()
	if err := sc.DurabilityErr(); err != nil {
		tb.Fatalf("durability error on a healthy disk: %v", err)
	}
	stats := st.Stats()
	if err := st.Close(); err != nil {
		tb.Fatalf("close store: %v", err)
	}
	return stats
}

func durableBenchDir(tb testing.TB, dir string) segio.FS {
	fs, err := segio.DirFS(dir)
	if err != nil {
		tb.Fatalf("dir fs: %v", err)
	}
	return fs
}

// BenchmarkCheckpointDurable prices the durability upgrade on real files.
// One op is a whole 50k-span checkpointing stream:
//
//   - ram: the baseline — Feed with Retain folding into RAM segments,
//     no store, nothing survives the process;
//   - durable: the same stream over a segio.DirFS store — every batch
//     FeedLogged (WAL append + fsync before the ack), every fold spilled
//     to a checksummed segment file. The delta against ram is the whole
//     cost of crash safety at this batch size, and it has three parts:
//     one fsync per batch, one segment write per fold, and the WAL
//     rotations that rewrite the live tail. PR 7 called the delta
//     "fsync-bound"; through the real binary with a big tail 85 % of it
//     was the third part, paid at every fold. BenchmarkFoldDurable is the
//     stage benchmark that splits it out;
//   - recover: segio.Open + core.RecoverStream against the files a
//     durable run left behind, at growing stream lengths. Geometric
//     compaction keeps the ladder logarithmic, so the segment count
//     barely moves while recovered bytes grow with history — recovery
//     cost must track the data, not ladder depth.
func BenchmarkCheckpointDurable(b *testing.B) {
	b.Run("ram/50k", func(b *testing.B) {
		batches := durableBenchBatches(durableBenchSpans)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resetParents(batches)
			sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 48, Retain: durableBenchRetain})
			b.StartTimer()
			for _, batch := range batches {
				sc.Feed(batch...)
			}
			sc.Flush()
		}
	})
	b.Run("durable/50k", func(b *testing.B) {
		batches := durableBenchBatches(durableBenchSpans)
		b.ReportAllocs()
		var stats segio.Stats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resetParents(batches)
			fs := durableBenchDir(b, b.TempDir()) // fresh store every op: each run pays the full write path
			b.StartTimer()
			stats = feedDurableStore(b, fs, 48, batches)
		}
		b.ReportMetric(float64(stats.Segments), "segments")
		b.ReportMetric(float64(stats.SegmentBytes+stats.WALBytes)/1024, "KiB-on-disk")
	})

	for _, size := range []int{12_500, 25_000, 50_000} {
		size := size
		b.Run(fmt.Sprintf("recover/%dk-spans", size/1000), func(b *testing.B) {
			batches := durableBenchBatches(size)
			resetParents(batches)
			stored := 0 // the generator rounds Spans down to whole trace shapes
			for _, batch := range batches {
				stored += len(batch)
			}
			fs := durableBenchDir(b, b.TempDir())
			stats := feedDurableStore(b, fs, 48, batches)
			b.ReportAllocs()
			var recovered int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, rec, err := segio.Open(fs, segio.Options{})
				if err != nil {
					b.Fatalf("open store: %v", err)
				}
				if len(rec.Quarantined) != 0 {
					b.Fatalf("clean files quarantined: %v", rec.Quarantined)
				}
				sc, err := core.RecoverStream(core.StreamOptions{
					ReorderWindow: 48, Retain: durableBenchRetain, Store: st,
				}, rec)
				if err != nil {
					b.Fatalf("recover: %v", err)
				}
				b.StopTimer()
				// Conservation holds after Flush: the replayed WAL tail sits
				// in the reorder buffer until then, and spans a fold already
				// moved to a segment can transiently coexist with their WAL
				// batch copies there.
				sc.Flush()
				st2 := sc.Stats()
				recovered = st2.Live + st2.Checkpointed
				if recovered != stored {
					b.Fatalf("recovered %d spans, stored %d", recovered, stored)
				}
				if err := st.Close(); err != nil {
					b.Fatalf("close store: %v", err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(stats.Segments), "segments")
			b.ReportMetric(float64(recovered), "recovered-spans")
		})
	}
}

// rotationBytesFS counts the bytes written into new WAL generations — what
// rotations rewrite — apart from everything else the store writes.
type rotationBytesFS struct {
	segio.FS
	bytes int64
}

func (f *rotationBytesFS) Create(name string) (segio.File, error) {
	file, err := f.FS.Create(name)
	if err != nil || !strings.HasPrefix(name, "wal-") {
		return file, err
	}
	return &rotationBytesFile{File: file, fs: f}, nil
}

type rotationBytesFile struct {
	segio.File
	fs *rotationBytesFS
}

func (f *rotationBytesFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes += int64(n)
	return n, err
}

// BenchmarkFoldDurable is the stage benchmark for the durable half of a
// fold — the fold and wal/rotate rows: BenchmarkCheckpointDurable's
// durable stream under its own 48-tick reorder window (smalltail: a fold
// releases more than stays live, so most folds rotate) and under a
// 40 000-tick one (bigtail: the live tail is several folds deep, so most
// defer). ns/span is the whole durable stream per span fed. rotated-B/span
// is what WAL rotations rewrote per span fed: the live tail's spans — the
// rotation rule holds those at one span per span fed whatever the tail,
// where rotating at every fold cost the big tail several — plus each
// snapshot's correlation table, which this stream (no CorrRetain) lets
// grow with it.
func BenchmarkFoldDurable(b *testing.B) {
	for _, shape := range []struct {
		name   string
		window vclock.Duration
	}{{"smalltail", 48}, {"bigtail", 40_000}} {
		b.Run(shape.name, func(b *testing.B) {
			batches := durableBenchBatches(durableBenchSpans)
			spans := 0
			for _, batch := range batches {
				spans += len(batch)
			}
			var rotated int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				resetParents(batches)
				fs := &rotationBytesFS{FS: durableBenchDir(b, b.TempDir())}
				b.StartTimer()
				feedDurableStore(b, fs, shape.window, batches)
				rotated += fs.bytes
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spans), "ns/span")
			b.ReportMetric(float64(rotated)/float64(b.N*spans), "rotated-B/span")
		})
	}
}
