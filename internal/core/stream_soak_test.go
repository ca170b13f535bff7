package core_test

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"xsp/internal/core"
	"xsp/internal/trace"
	"xsp/internal/workload"
)

// soakSpans returns the soak stream length: 500k spans by default — a
// sustained run two orders of magnitude past the property tests — scalable
// down through XSP_SOAK_SPANS for constrained CI boxes.
func soakSpans(t *testing.T) int {
	if v := os.Getenv("XSP_SOAK_SPANS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad XSP_SOAK_SPANS %q", v)
		}
		return n
	}
	return 500_000
}

// The tentpole's soak: a sustained-pipelined stream (three overlapping
// timelines for the entire run, repeated end to end, reordered arrivals)
// with every lifecycle bound engaged — Retain, CorrRetain, and the
// degraded-window size bound. Everything that used to grow with stream
// length must stay flat: live spans (fold horizon advancing through
// chained windows), checkpoint segments (geometric compaction), the
// correlation-id and pending-exec tables (retention horizon), and the
// reorder buffer. The generator itself is bounded too: workload.Stream
// materializes one repetition at a time.
func TestStreamCorrelatorSustainedSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: skipped in -short")
	}
	total := soakSpans(t)
	const perRep = 25_000

	runtime.GC()
	var heapBefore runtime.MemStats
	runtime.ReadMemStats(&heapBefore)

	sc := core.NewStreamCorrelator(core.StreamOptions{
		ReorderWindow: 48,
		Retain:        4_096,
		CorrRetain:    16_384,
	}.WithMaxWindowSpans(2_048))

	fed := 0
	var maxLive, maxSegments, maxCorr, maxPending, maxBuffered int
	sample := func() {
		st := sc.Stats()
		maxLive = max(maxLive, st.Live)
		maxSegments = max(maxSegments, st.Segments)
		maxCorr = max(maxCorr, st.CorrEntries)
		maxPending = max(maxPending, st.PendingExecs)
		maxBuffered = max(maxBuffered, st.Buffered)
	}
	workload.Stream(workload.StreamingSpec{
		Trace:       workload.SyntheticSpec{Spans: perRep, Streams: 3, Seed: 1},
		BatchSize:   1_000,
		ReorderSkew: 48,
		Repeat:      (total + perRep - 1) / perRep,
		Seed:        9,
	}, func(b []*trace.Span) bool {
		sc.Feed(b...)
		fed += len(b)
		sample()
		return fed < total
	})
	sample()

	st := sc.Stats()
	if st.WindowsChained == 0 {
		t.Fatal("sustained overlap never chained a degraded window — the soak is not exercising the tentpole")
	}
	if st.Compactions == 0 {
		t.Fatal("a soak-length stream never compacted its checkpoint segments")
	}
	if st.CorrEvicted == 0 {
		t.Fatal("a soak-length stream never evicted a correlation-id entry")
	}

	// The bounds. Each is sized from the configured horizons (spans within
	// Retain/CorrRetain of the tip, plus amortization slack), nowhere near
	// proportional to the stream length — the point of the soak. A stalled
	// fold horizon puts Live at ~fed; a leaking correlation table puts
	// CorrEntries at ~launch count (≈ fed/2.2).
	if maxLive > 40_000 {
		t.Fatalf("live spans peaked at %d of %d fed — fold horizon stalling", maxLive, fed)
	}
	if maxSegments > 24 {
		t.Fatalf("checkpoint segments peaked at %d — geometric compaction not holding", maxSegments)
	}
	if maxCorr > 40_000 {
		t.Fatalf("correlation-id table peaked at %d entries — retention horizon not holding", maxCorr)
	}
	if maxPending > 40_000 {
		t.Fatalf("pending-exec table peaked at %d — retention horizon not holding", maxPending)
	}
	if maxBuffered > 40_000 {
		t.Fatalf("reorder buffer peaked at %d", maxBuffered)
	}

	// The byte bound, not just the counters: everything the run retains —
	// the spans themselves plus the correlator's windows, reorder buffer,
	// correlation tables, and checkpoint segments — as settled heap per
	// span fed. A leak in any index, or per-span overhead creeping back
	// into the hot path (the tree-node pool and O(1) sortedness tracking
	// are what hold it down), moves this before it moves the peaks above.
	runtime.GC()
	var heapAfter runtime.MemStats
	runtime.ReadMemStats(&heapAfter)
	var retained uint64
	if heapAfter.HeapAlloc > heapBefore.HeapAlloc {
		retained = heapAfter.HeapAlloc - heapBefore.HeapAlloc
	}
	// Folded history is held encoded — an 80-byte record, its share of the
	// tables and an 8-byte reference a span — so the bound is the codec's
	// size plus the live tail, not the ~250 bytes of a decoded span.
	if perSpan := float64(retained) / float64(fed); perSpan > 170 {
		t.Fatalf("soak retains %.0f bytes per span fed (%d MiB for %d spans)",
			perSpan, retained>>20, fed)
	} else {
		t.Logf("soak retains %.0f bytes per span fed", perSpan)
	}

	sc.Flush()
	final := sc.Stats()
	if final.Fed != fed {
		t.Fatalf("correlator accounts for %d spans, fed %d", final.Fed, fed)
	}
	if final.Live+final.Checkpointed != fed {
		t.Fatalf("conservation broken: live %d + checkpointed %d != fed %d",
			final.Live, final.Checkpointed, fed)
	}
	// Spot-check resolution: past the first repetition's warmup, launch
	// and synchronous spans must all be parented (the generator nests
	// everything under a model span), or the chained windows dropped work.
	unresolved := 0
	for _, s := range sc.Trace().Spans {
		if s.Level != trace.LevelModel && s.Kind != trace.KindExec && s.ParentID == 0 {
			unresolved++
		}
	}
	if unresolved > 0 {
		t.Fatalf("%d non-exec spans left unparented after Flush", unresolved)
	}

	// The repair-heavy arm — the shape of the benchmark's ram_pipelined_2t:
	// arrivals skewed past the reorder window and, every repetition, a window
	// of spans withheld until its end, so repairs keep reaching behind the
	// checkpoint horizon and taking records out of blocks. What the history
	// keeps resident must stay within twice what it still references: a block
	// leaves with its last reference, and one under half referenced gives its
	// records up to a gathered block (TestWithoutKeepsBlocksHalfReferenced
	// takes that rule apart; here it has to hold through a whole stream).
	t.Run("repair-heavy", func(t *testing.T) {
		sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 64, Retain: 256, CorrRetain: 100_000})
		fed, batches := 0, 0
		check := func() {
			t.Helper()
			resident, referenced, shared := sc.BlockResidency()
			if shared || resident > 2*referenced {
				t.Fatalf("after %d spans: %d block bytes resident for %d referenced (a block in two segments: %v)", fed, resident, referenced, shared)
			}
		}
		workload.Stream(workload.StreamingSpec{
			Trace:           workload.SyntheticSpec{Spans: perRep / 4, Streams: 3, KernelMetrics: true, Seed: 2},
			BatchSize:       1_000,
			ReorderSkew:     256,
			StragglerWindow: 1_536,
			Repeat:          max(6, 2*total/perRep), // half the soak's length
			Seed:            11,
		}, func(b []*trace.Span) bool {
			sc.Feed(b...)
			fed += len(b)
			if batches++; batches%8 == 0 {
				check()
			}
			return true
		})
		sc.Flush()
		check()
		if st := sc.Stats(); st.Reopens < 3 || st.Compactions == 0 || st.Checkpointed < fed/2 {
			t.Fatalf("not repair-heavy: %+v", st)
		}
	})
}
