package stats

import "math"

// Online accumulates count, sum, mean, min, max, and variance of a stream
// of observations in O(1) memory, using Welford's algorithm for the
// second moment so the variance stays numerically stable over long runs.
// The zero value is an empty accumulator ready to use. Online is not
// safe for concurrent use; callers that share one hold their own lock
// (analysis.Online snapshots its accumulators under the engine mutex).
type Online struct {
	n    int64
	sum  float64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	o.sum += x
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
	if o.n == 1 || x < o.min {
		o.min = x
	}
	if o.n == 1 || x > o.max {
		o.max = x
	}
}

// Count returns the number of observations.
func (o *Online) Count() int64 { return o.n }

// Sum returns the direct (non-Welford) sum of the observations, so totals
// reported next to batch sums agree to float addition order.
func (o *Online) Sum() float64 { return o.sum }

// Mean returns the running mean, or 0 when empty.
func (o *Online) Mean() float64 { return o.mean }

// Min returns the smallest observation, or 0 when empty.
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation, or 0 when empty.
func (o *Online) Max() float64 { return o.max }

// Variance returns the population variance, or 0 with fewer than two
// observations.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the population standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }
