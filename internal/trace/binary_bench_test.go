package trace_test

import (
	"bytes"
	"fmt"
	"testing"

	"xsp/internal/trace"
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
