// Package stats provides the statistical summaries XSP's analysis pipeline
// applies across evaluation runs: meaningful characterization requires
// multiple runs, and the pipeline computes the trimmed mean (or another
// user-defined summary) of the same performance value across runs.
//
// The slice-based summaries (Mean, TrimmedMean, Percentile, ...) serve the
// batch pipeline, which holds every sample. The live analysis engine
// (analysis.Online) instead accumulates as spans stream past, so the
// package also provides bounded-memory online counterparts: Online folds
// count/sum/mean/min/max/variance in O(1) space via Welford's algorithm,
// and Sketch estimates quantiles within a configured relative error from
// O(log(max/min)/alpha) geometric buckets with a hard bucket cap — neither
// ever retains samples, which is what lets per-layer percentiles survive
// unbounded streams.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries of empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// TrimmedMean returns the mean of xs after discarding the fraction trim of
// the smallest and largest values (e.g. trim=0.2 discards the bottom and top
// 20%). The paper's analysis pipeline uses the trimmed mean as its default
// cross-run summary.
//
// The contract is exact: trim is clamped to [0, 0.5], the same count
// k = min(floor(len*trim), (len-1)/2) is discarded from each end, and at
// least one sample always survives. trim=0 is the plain mean; trim=0.5 (or
// more) degenerates to the median's neighborhood — the middle element for
// odd lengths, the mean of the two middle elements for even lengths.
func TrimmedMean(xs []float64, trim float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if trim < 0 {
		trim = 0
	}
	if trim > 0.5 {
		trim = 0.5
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := int(float64(len(sorted)) * trim)
	// Never trim the whole sample, and always trim symmetrically: the same
	// k from each end, with 2k < len.
	if max := (len(sorted) - 1) / 2; k > max {
		k = max
	}
	return Mean(sorted[k : len(sorted)-k]), nil
}

// WeightedMean returns the mean of xs weighted by ws. The paper uses a
// latency-weighted mean to aggregate achieved occupancy across kernels. A
// zero total weight yields 0.
func WeightedMean(xs, ws []float64) float64 {
	n := len(xs)
	if len(ws) < n {
		n = len(ws)
	}
	var sum, wsum float64
	for i := 0; i < n; i++ {
		sum += xs[i] * ws[i]
		wsum += ws[i]
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// Percentile returns the p-th percentile (0-100) of xs using linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0], nil
	}
	if p >= 100 {
		return sorted[len(sorted)-1], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
