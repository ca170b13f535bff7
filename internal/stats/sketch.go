package stats

import (
	"math"
	"sort"
)

// Sketch is a bounded-memory streaming quantile sketch over positive
// values, in the DDSketch family: values land in geometrically spaced
// buckets sized so every quantile estimate is within a relative error of
// alpha of some true sample value. Memory is bounded twice over — the
// geometric spacing needs only O(log(max/min)/alpha) buckets to cover any
// value range, and MaxBuckets is a hard cap past which the lowest buckets
// collapse together (biasing only the lowest quantiles, the cheap ones;
// the high quantiles analyses care about keep their guarantee). Values
// at or below zero count into a dedicated zero bucket.
//
// The zero value is not usable; construct with NewSketch. A Sketch is
// not safe for concurrent use.
type Sketch struct {
	gamma      float64
	logGamma   float64
	maxBuckets int

	count     int64
	zeroCount int64
	buckets   map[int]int64
	minKey    int // smallest key present, valid when len(buckets) > 0
}

// DefaultSketchAlpha is the relative-error target applied when NewSketch
// is given a non-positive alpha: estimates within 1% of a true value.
const DefaultSketchAlpha = 0.01

// DefaultSketchMaxBuckets caps a sketch's bucket count. At alpha=0.01 a
// single bucket spans a factor of ~1.02, so 2048 buckets cover ~17 orders
// of magnitude before any collapsing happens — far wider than any latency
// distribution — while bounding the sketch at a few tens of kilobytes.
const DefaultSketchMaxBuckets = 2048

// NewSketch returns an empty sketch with the given relative-error target
// (non-positive applies DefaultSketchAlpha; values are clamped below 1)
// and DefaultSketchMaxBuckets.
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 {
		alpha = DefaultSketchAlpha
	}
	if alpha >= 1 {
		alpha = 0.99
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		gamma:      gamma,
		logGamma:   math.Log(gamma),
		maxBuckets: DefaultSketchMaxBuckets,
		buckets:    make(map[int]int64),
	}
}

// key maps a positive value to its bucket index: the unique i with
// gamma^(i-1) < x <= gamma^i.
func (sk *Sketch) key(x float64) int {
	return int(math.Ceil(math.Log(x) / sk.logGamma))
}

// value is the representative of bucket i: the geometric midpoint
// 2*gamma^i/(gamma+1), within alpha relative error of every value the
// bucket can hold.
func (sk *Sketch) value(i int) float64 {
	return 2 * math.Pow(sk.gamma, float64(i)) / (sk.gamma + 1)
}

// Add folds one observation into the sketch.
func (sk *Sketch) Add(x float64) {
	sk.count++
	if x <= 0 {
		sk.zeroCount++
		return
	}
	key := sk.key(x)
	if len(sk.buckets) == 0 || key < sk.minKey {
		sk.minKey = key
	}
	sk.buckets[key]++
	if len(sk.buckets) > sk.maxBuckets {
		sk.collapseLowest()
	}
}

// collapseLowest merges the lowest bucket into the next-lowest, keeping
// the bucket count at the cap. Only the lowest quantiles lose precision.
func (sk *Sketch) collapseLowest() {
	lowest, next := sk.minKey, math.MaxInt
	for k := range sk.buckets {
		if k > lowest && k < next {
			next = k
		}
	}
	sk.buckets[next] += sk.buckets[lowest]
	delete(sk.buckets, lowest)
	sk.minKey = next
}

// Quantile returns an estimate of the q-th quantile (q in [0,1], clamped)
// with relative error at most alpha, or 0 for an empty sketch. The
// estimate converges on the same order statistic Percentile(xs, 100q)
// picks: the value at rank floor(q*(count-1)).
func (sk *Sketch) Quantile(q float64) float64 {
	if sk.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(sk.count-1))
	if rank < sk.zeroCount {
		return 0
	}
	keys := make([]int, 0, len(sk.buckets))
	for k := range sk.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	seen := sk.zeroCount
	for _, k := range keys {
		seen += sk.buckets[k]
		if rank < seen {
			return sk.value(k)
		}
	}
	// Unreachable when counts are consistent; fall back to the top bucket.
	if len(keys) > 0 {
		return sk.value(keys[len(keys)-1])
	}
	return 0
}
