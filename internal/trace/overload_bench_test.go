package trace_test

// External test package so the tap destination can be the real streaming
// correlator (internal/core imports internal/trace).

import (
	"testing"

	"xsp/internal/core"
	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// BenchmarkPublishTapped measures a tenant's in-process publish path
// (ServerTenant.Collector, a Memory-mode tenant) with a streaming-correlator
// tap attached. The inline variant (SetTap) runs correlation on the publish
// path; the async variant (SetTapAsync, the way xsp-server wires it) only
// enqueues onto the bounded tap queue and leaves correlation to the tap
// worker. On the non-overloaded path —
// which is what a publish-side benchmark measures; the queue never fills
// here — the async tap must cost no more per publish than the inline tap,
// since all it adds is the enqueue. Once the queue saturates, the tap's
// throughput converges to the consumer's either way; the win is that the
// publisher is no longer coupled to per-batch correlation latency.
func BenchmarkPublishTapped(b *testing.B) {
	const batchSpans = 64
	// Successive fresh kernel batches along one advancing timeline, so the
	// correlator does genuine windowed work, not degenerate same-time
	// inserts.
	makeBatch := func(cursor *vclock.Time, nextID *uint64) []*trace.Span {
		batch := make([]*trace.Span, batchSpans)
		for i := range batch {
			*nextID++
			batch[i] = &trace.Span{
				ID: *nextID, Level: trace.LevelKernel, Kind: trace.KindExec,
				Name: "k", Begin: *cursor, End: *cursor + 2,
			}
			*cursor += 3
		}
		return batch
	}
	newCorrelator := func() *core.StreamCorrelator {
		// Isolated, because the tenant's Memory keeps the same spans; Retain
		// folds finalized history, so the cost is the steady-state one, not
		// an ever-growing append.
		return core.NewStreamCorrelator(core.StreamOptions{
			Isolated:      true,
			ReorderWindow: 64,
			Retain:        1024,
		})
	}

	b.Run("inline-tap", func(b *testing.B) {
		tn := trace.NewServer().Tenant(trace.DefaultTenant)
		tn.SetTap(newCorrelator())
		c := tn.Collector()
		var cursor vclock.Time
		var id uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Publish(makeBatch(&cursor, &id)...)
		}
	})
	b.Run("async-tap", func(b *testing.B) {
		tn := trace.NewServer().Tenant(trace.DefaultTenant)
		tap := tn.SetTapAsync(newCorrelator(), trace.TapOptions{})
		c := tn.Collector()
		var cursor vclock.Time
		var id uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Publish(makeBatch(&cursor, &id)...)
		}
		b.StopTimer()
		// Drain off the clock: the measured op is the publish path alone.
		tap.Close()
	})
}
