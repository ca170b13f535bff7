package trace_test

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

// serverShapeSpans is n spans as the server benchmark feeds them: typed
// layers of 8 launch/exec pairs with kernel metrics, one memcpy per layer.
func serverShapeSpans(n int) []*trace.Span {
	return workload.SyntheticTrace(workload.SyntheticSpec{
		Spans:           n,
		KernelsPerLayer: 8,
		LayerTypes:      []string{"Conv2D", "Relu", "BatchNorm", "MatMul"},
		KernelMetrics:   true,
		MemcpysPerLayer: 1,
		Seed:            1,
	}).Spans
}

// BenchmarkAppendSpanBlock is the span-block encode stage alone, at the
// size of a WAL record (1k spans) and of a big-tail segment (64k), with the
// copying encoder it replaced beside it on the same input. in-place encodes
// into a reused buffer, as segio's LogBatch does; by-copy grows its private
// buffers from nothing on every call, as it always did.
func BenchmarkAppendSpanBlock(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1k", 1 << 10}, {"64k", 1 << 16}} {
		spans := serverShapeSpans(size.n)
		owned := func(i int) bool { return i%2 == 0 }
		run := func(name string, encode func(buf []byte) []byte) {
			b.Run(fmt.Sprintf("%s/%s", size.name, name), func(b *testing.B) {
				buf := encode(nil)
				b.ReportAllocs()
				b.SetBytes(int64(len(buf)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = encode(buf[:0])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(spans)), "ns/span")
			})
		}
		run("in-place", func(buf []byte) []byte { return trace.AppendSpanBlock(buf, spans, owned) })
		run("by-copy", func([]byte) []byte { return trace.AppendSpanBlockByCopy(nil, spans, owned) })
	}
}

// TestAppendSpanBlockAllocBudget pins the encoder's steady state: into a
// buffer that already has the room, with a warm scratch pool, a call
// allocates at most once (the pool may have been drained by a collection).
func TestAppendSpanBlockAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops items at random")
	}
	spans := serverShapeSpans(1 << 10)
	buf := trace.AppendSpanBlock(nil, spans, nil)
	if avg := testing.AllocsPerRun(100, func() { buf = trace.AppendSpanBlock(buf[:0], spans, nil) }); avg > 1 {
		t.Fatalf("AppendSpanBlock into a presized buffer: %.2f allocs per call, budget 1", avg)
	}
}

// TestDecodeBinaryAllocBudget pins the decoder's side: a frame of the
// server benchmark's shape — eight launch/exec pairs a layer, four metrics an
// exec, three tags a layer — decodes in a number of allocations that does not
// grow with what its spans carry: the trace, the span and owned lists, the
// blob, one arena chunk per storeChunkSpans spans and the list of them, one
// arena per entry table. A map per attributed span was ~1 270.
func TestDecodeBinaryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops items at random")
	}
	spans := serverShapeSpans(1 << 10)
	frame := trace.AppendBinaryFrameTenant(nil, "", spans)
	decode := func() {
		if tr, err := trace.DecodeBinary(bytes.NewReader(frame)); err != nil || len(tr.Spans) != len(spans) {
			t.Fatalf("decode: %v", err)
		}
	}
	decode() // warm the payload pool
	avg := testing.AllocsPerRun(100, decode)
	t.Logf("DecodeBinary of a %d-span server-shape frame: %.1f allocs", len(spans), avg)
	if avg > 32 {
		t.Fatalf("DecodeBinary of a %d-span server-shape frame: %.1f allocs, budget 32", len(spans), avg)
	}
}

// benchBatches is one repetition of a bench workload's arrivals: 64 Ki
// spans of the server shape on the given streams, shuffled within skew,
// with a straggler window held to the end, in 1 024-span batches.
func benchBatches(streams int, skew, straggler vclock.Duration) [][]*trace.Span {
	return workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{
			Spans:           1 << 16,
			KernelsPerLayer: 8,
			Streams:         streams,
			LayerTypes:      []string{"Conv2D", "Relu", "BatchNorm", "MatMul"},
			KernelMetrics:   true,
			MemcpysPerLayer: 1,
			Seed:            42,
		},
		BatchSize:       1024,
		ReorderSkew:     skew,
		StragglerWindow: straggler,
		Seed:            42,
	})
}

// BenchmarkDecodeBinary is the ingest decode stage alone on a bench
// workload's frames: nested is ram_nested's shape (one stream, skew 48,
// 1.2 inversions a span), pipelined ram_pipelined_2t's (three streams,
// skew 256, straggler window 2 048: 17 inversions a span), and reversed
// nested's batches backwards, which spend the ordering's move budget and
// fall back. Each decoded batch is recycled, as a server's folds recycle
// theirs, so the decode refills slots and entry arrays as it does in
// steady state. An op is one frame of ~1k spans.
func BenchmarkDecodeBinary(b *testing.B) {
	for _, shape := range []struct {
		name            string
		streams         int
		skew, straggler vclock.Duration
		reverse         bool
	}{
		{"nested", 1, 48, 0, false},
		{"pipelined", 3, 256, 2048, false},
		{"reversed", 1, 48, 0, true},
	} {
		var frames [][]byte
		for _, batch := range benchBatches(shape.streams, shape.skew, shape.straggler) {
			if shape.reverse {
				slices.Reverse(batch)
			}
			frames = append(frames, trace.AppendBinaryFrameTenant(nil, "", batch))
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			decoded := 0
			for i := 0; i < b.N; i++ {
				tr, err := trace.DecodeBinary(bytes.NewReader(frames[i%len(frames)]))
				if err != nil {
					b.Fatal(err)
				}
				decoded += len(tr.Spans)
				trace.RecycleSpans(tr.Spans)
				trace.RecycleBatch(tr.Spans)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(decoded), "ns/span")
		})
	}
}

// TestDecodeBinaryBoundsItsSort: ordering a decoded batch costs at most its
// move budget, then an O(n log n) fallback. A frame in order and every
// batch of ram_pipelined_2t's shape stay inside the budget, and a reversed
// 64 Ki-span frame — 2 Gi inversions — exhausts it, falls back having moved
// no more than the budget allows, and still decodes in canonical order.
func TestDecodeBinaryBoundsItsSort(t *testing.T) {
	// decode reports the moves a fallback of the batch's ordering made, -1
	// when the batch kept to the budget.
	decode := func(spans []*trace.Span) (moves int) {
		moves = -1
		stop := trace.CountFallbacks(func(n, m int) {
			if n == len(spans) {
				moves = m
			}
		})
		defer stop()
		tr, err := trace.DecodeBinary(bytes.NewReader(trace.AppendBinaryFrameTenant(nil, "", spans)))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSortedFunc(tr.Spans, func(a, b *trace.Span) int {
			return cmp.Or(cmp.Compare(a.Begin, b.Begin), cmp.Compare(a.Level, b.Level), cmp.Compare(a.ID, b.ID))
		}) {
			t.Fatalf("a decoded %d-span batch is out of canonical order", len(spans))
		}
		return moves
	}
	const n = 1 << 16
	inOrder := trace.Trace{Spans: serverShapeSpans(n)}
	inOrder.SortByBegin()
	spans := inOrder.Spans
	if moves := decode(spans); moves >= 0 {
		t.Fatalf("a frame in order fell back after %d moves", moves)
	}
	for _, batch := range benchBatches(3, 256, 2048) {
		if moves := decode(batch); moves >= 0 {
			t.Fatalf("a %d-span pipelined batch fell back after %d moves", len(batch), moves)
		}
	}
	slices.Reverse(spans)
	if moves := decode(spans); moves < 0 || moves > trace.SortMoveBudget*n {
		t.Fatalf("a reversed %d-span frame: %d moves before the fallback (-1: none), budget %d", n, moves, trace.SortMoveBudget*n)
	}
}
