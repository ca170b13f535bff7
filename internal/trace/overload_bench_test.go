package trace_test

// External test package so the tap destination can be the real streaming
// correlator (internal/core imports internal/trace).

import (
	"testing"

	"xsp/internal/core"
	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// BenchmarkPublishTapped measures the Memory publish path with a
// streaming-correlator tap attached, the way xsp-server wires it. The
// inline variant runs correlation on the publish path (the pre-AsyncTap
// design); the async variant only enqueues onto the bounded tap queue and
// leaves correlation to the tap worker. On the non-overloaded path —
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
		// Isolated, because the Memory it taps keeps the same spans; Retain
		// folds finalized history, so the cost is the steady-state one, not
		// an ever-growing append.
		return core.NewStreamCorrelator(core.StreamOptions{
			Isolated:      true,
			ReorderWindow: 64,
			Retain:        1024,
		})
	}

	b.Run("inline-tap", func(b *testing.B) {
		mem := trace.NewMemory()
		mem.SetTap(newCorrelator())
		var cursor vclock.Time
		var id uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mem.Publish(makeBatch(&cursor, &id)...)
		}
	})
	b.Run("async-tap", func(b *testing.B) {
		mem := trace.NewMemory()
		tap := mem.SetTapAsync(newCorrelator(), trace.TapOptions{})
		var cursor vclock.Time
		var id uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mem.Publish(makeBatch(&cursor, &id)...)
		}
		b.StopTimer()
		// Drain off the clock: the measured op is the publish path alone.
		tap.Close()
	})
}
