package workload

import (
	"math/rand"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// StreamingSpec shapes a streaming-arrival run: a synthetic trace's spans
// delivered in arrival order, in batches, with controllable reordering —
// the skew concurrent publishers introduce. It backs the StreamCorrelator
// property tests and BenchmarkStreamCorrelate.
type StreamingSpec struct {
	// Trace is the underlying workload; see SyntheticSpec (Streams > 1
	// yields pipelined overlap, DropLaunches the device-only shape).
	Trace SyntheticSpec

	// BatchSize is the number of spans per delivered batch (one Feed
	// call). Defaults to 256.
	BatchSize int

	// ReorderSkew bounds the arrival disorder: spans are shuffled within
	// consecutive buckets of this virtual-time width, so a span arrives at
	// most ReorderSkew of begin-time later than in-order delivery. A
	// correlator with ReorderWindow >= ReorderSkew therefore sees no
	// stragglers; a smaller window will (at any realistic size) see some.
	// Zero delivers the spans in canonical begin order.
	ReorderSkew vclock.Duration

	// StragglerWindow, when nonzero, withholds every span beginning
	// inside one virtual-time window of this width — placed at
	// StragglerPos of the trace's duration — and delivers the withheld
	// spans as one extra final batch after the rest of the stream. By
	// then the correlator's release point has passed them, so they arrive
	// as out-of-window stragglers whose repair region is the withheld
	// window: widening it grows the repair, lengthening the trace does
	// not. It composes with ReorderSkew (the skew shuffles the punctual
	// spans).
	StragglerWindow vclock.Duration

	// StragglerPos places the straggler window, as a fraction of the
	// trace's begin-time range in (0, 1). Defaults to 0.75.
	StragglerPos float64

	// Repeat streams the workload Repeat times end to end: each
	// repetition regenerates the synthetic trace (with the repetition
	// index folded into both seeds for variety), remaps its span IDs,
	// correlation ids, and clock past the previous repetition's, and
	// delivers its batches before the next repetition begins. With
	// Trace.Streams > 1 every repetition sustains pipelined overlap, so a
	// repeated stream is the sustained-overlap soak workload: arbitrarily
	// long, while Stream generates it one repetition at a time in bounded
	// memory. Zero or one means a single pass.
	Repeat int

	// Seed drives the deterministic shuffle.
	Seed int64
}

// repGap is the virtual-time gap Stream leaves between repetitions.
const repGap = 64

// Stream yields the arrival stream batch by batch — the lazy form of
// StreamingArrivals for sustained runs: each repetition (see Repeat) is
// generated only when the previous one has been fully yielded, so driving
// a day-long stream holds one repetition's spans, not the whole run's.
// Yield returning false stops the stream early.
func Stream(spec StreamingSpec, yield func(batch []*trace.Span) bool) {
	reps := spec.Repeat
	if reps <= 0 {
		reps = 1
	}
	single := spec
	single.Repeat = 1
	var idBase, corrBase uint64
	var tBase vclock.Time
	for r := 0; r < reps; r++ {
		rspec := single
		rspec.Trace.Seed = spec.Trace.Seed + int64(r)
		rspec.Seed = spec.Seed + int64(r)
		batches := streamingArrivalsOnce(rspec)
		var maxID, maxCorr uint64
		var maxEnd vclock.Time
		for _, b := range batches {
			for _, s := range b {
				s.ID += idBase
				if s.CorrelationID != 0 {
					s.CorrelationID += corrBase
				}
				s.Begin += tBase
				s.End += tBase
				if s.ID > maxID {
					maxID = s.ID
				}
				if s.CorrelationID > maxCorr {
					maxCorr = s.CorrelationID
				}
				if s.End > maxEnd {
					maxEnd = s.End
				}
			}
		}
		for _, b := range batches {
			if !yield(b) {
				return
			}
		}
		idBase, corrBase, tBase = maxID, maxCorr, maxEnd+repGap
	}
}

// StreamingArrivals generates the synthetic trace and returns its spans in
// arrival order, batched. Parents are unset (SyntheticSpec.Prelinked is
// ignored), so the stream correlator has the full reconstruction to do.
// With Repeat > 1 the repetitions are materialized up front; prefer Stream
// for runs long enough that holding them all would defeat the point.
func StreamingArrivals(spec StreamingSpec) [][]*trace.Span {
	if spec.Repeat > 1 {
		var all [][]*trace.Span
		Stream(spec, func(b []*trace.Span) bool {
			all = append(all, b)
			return true
		})
		return all
	}
	return streamingArrivalsOnce(spec)
}

// streamingArrivalsOnce is StreamingArrivals for a single repetition.
func streamingArrivalsOnce(spec StreamingSpec) [][]*trace.Span {
	if spec.BatchSize <= 0 {
		spec.BatchSize = 256
	}
	spec.Trace.Prelinked = false
	tr := SyntheticTrace(spec.Trace)
	tr.SortByBegin()
	spans := tr.Spans

	var held []*trace.Span
	if spec.StragglerWindow > 0 && len(spans) > 0 {
		pos := spec.StragglerPos
		if pos <= 0 || pos >= 1 {
			pos = 0.75
		}
		t0 := vclock.Time(float64(spans[len(spans)-1].Begin) * pos)
		t1 := t0 + vclock.Time(spec.StragglerWindow)
		kept := make([]*trace.Span, 0, len(spans))
		for _, s := range spans {
			if s.Begin >= t0 && s.Begin < t1 {
				held = append(held, s)
			} else {
				kept = append(kept, s)
			}
		}
		spans = kept
	}

	if spec.ReorderSkew > 0 {
		rng := rand.New(rand.NewSource(spec.Seed))
		for lo := 0; lo < len(spans); {
			hi := lo + 1
			limit := spans[lo].Begin + vclock.Time(spec.ReorderSkew)
			for hi < len(spans) && spans[hi].Begin < limit {
				hi++
			}
			rng.Shuffle(hi-lo, func(i, j int) {
				spans[lo+i], spans[lo+j] = spans[lo+j], spans[lo+i]
			})
			lo = hi
		}
	}

	batches := make([][]*trace.Span, 0, (len(spans)+spec.BatchSize-1)/spec.BatchSize+1)
	for lo := 0; lo < len(spans); lo += spec.BatchSize {
		hi := min(lo+spec.BatchSize, len(spans))
		batches = append(batches, spans[lo:hi:hi])
	}
	if len(held) > 0 {
		batches = append(batches, held)
	}
	return batches
}
