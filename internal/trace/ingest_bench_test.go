package trace_test

import (
	"sync"
	"testing"

	"xsp/internal/trace"
)

// lockedCollector is the pre-sharding Memory design — every publisher
// serialized on one mutex — kept as the contention baseline.
type lockedCollector struct {
	mu    sync.Mutex
	spans []*trace.Span
}

func (c *lockedCollector) Publish(spans ...*trace.Span) {
	c.mu.Lock()
	c.spans = append(c.spans, spans...)
	c.mu.Unlock()
}

// BenchmarkPublishParallel measures concurrent span ingestion. Run with
// -cpu=1,2,4,8: the sharded variants scale near-linearly with publisher
// count while the single-mutex baseline plateaus (or regresses) as every
// publisher fights for one lock. Each parallel worker owns one tracer,
// matching how profilers publish in a real run.
func BenchmarkPublishParallel(b *testing.B) {
	b.Run("sharded-tracers", func(b *testing.B) {
		// NewTracer on a *Memory takes a dedicated shard per tracer: the
		// publish path locks an uncontended mutex.
		mem := trace.NewMemory()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			tr := trace.NewTracer("bench", trace.LevelKernel, mem)
			defer tr.Close()
			s := &trace.Span{ID: trace.NewSpanID(), Level: trace.LevelKernel, Name: "k", Begin: 0, End: 1}
			for pb.Next() {
				tr.PublishCompleted(s)
			}
		})
	})
	b.Run("hashed-publish", func(b *testing.B) {
		// Direct Memory.Publish: batches hash onto the fixed public shard
		// array by span ID, so distinct publishers rarely collide.
		mem := trace.NewMemory()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			s := &trace.Span{ID: trace.NewSpanID(), Level: trace.LevelKernel, Name: "k", Begin: 0, End: 1}
			for pb.Next() {
				mem.Publish(s)
			}
		})
	})
	b.Run("single-mutex", func(b *testing.B) {
		col := &lockedCollector{}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			tr := trace.NewTracer("bench", trace.LevelKernel, col)
			s := &trace.Span{ID: trace.NewSpanID(), Level: trace.LevelKernel, Name: "k", Begin: 0, End: 1}
			for pb.Next() {
				tr.PublishCompleted(s)
			}
		})
	})
}
