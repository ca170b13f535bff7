package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func toFloats(raw []uint16) []float64 {
	xs := make([]float64, len(raw))
	for i, r := range raw {
		xs[i] = float64(r)
	}
	return xs
}

// Property: Online agrees with the slice-based summaries on the same
// sample, regardless of arrival order.
func TestOnlineMatchesBatchProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := toFloats(raw)
		var o Online
		for _, x := range xs {
			o.Add(x)
		}
		m := Mean(xs)
		var sum, ss float64
		for _, x := range xs {
			sum += x
			ss += (x - m) * (x - m)
		}
		relClose := func(a, b float64) bool {
			return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
		}
		return o.Count() == int64(len(xs)) &&
			relClose(o.Sum(), sum) &&
			relClose(o.Mean(), m) &&
			o.Min() == slices.Min(xs) && o.Max() == slices.Max(xs) &&
			relClose(o.StdDev(), math.Sqrt(ss/float64(len(xs))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.Count() != 0 || o.Mean() != 0 || o.Min() != 0 || o.Max() != 0 ||
		o.Sum() != 0 || o.Variance() != 0 || o.StdDev() != 0 {
		t.Errorf("zero Online not all-zero: %+v", o)
	}
	o.Add(3)
	if o.Count() != 1 || o.Mean() != 3 || o.Min() != 3 || o.Max() != 3 || o.StdDev() != 0 {
		t.Errorf("one observation wrong: %+v", o)
	}
}

// Property: every sketch quantile is within alpha relative error of the
// exact order statistic of the same rank.
func TestSketchQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5000)
		xs := make([]float64, n)
		const alpha = 0.01
		sk := NewSketch(alpha)
		for i := range xs {
			// Span several orders of magnitude, like latencies do.
			xs[i] = math.Exp(rng.Float64()*18 - 9)
			sk.Add(xs[i])
		}
		sort.Float64s(xs)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			exact := xs[int(q*float64(n-1))]
			got := sk.Quantile(q)
			if rel := math.Abs(got-exact) / exact; rel > alpha+1e-9 {
				t.Fatalf("trial %d n=%d q=%v: got %v want %v (rel err %v)", trial, n, q, got, exact, rel)
			}
		}
	}
}

func TestSketchZeroAndEmpty(t *testing.T) {
	sk := NewSketch(0)
	if sk.Quantile(0.5) != 0 || sk.count != 0 {
		t.Error("empty sketch should report zero")
	}
	sk.Add(0)
	sk.Add(-5)
	sk.Add(10)
	if sk.count != 3 || sk.zeroCount != 2 {
		t.Errorf("count = %d (zero bucket %d), want 3 (2)", sk.count, sk.zeroCount)
	}
	if q := sk.Quantile(0); q != 0 {
		t.Errorf("Quantile(0) = %v, want 0 (zero bucket)", q)
	}
	if q := sk.Quantile(1); math.Abs(q-10)/10 > DefaultSketchAlpha {
		t.Errorf("Quantile(1) = %v, want ~10", q)
	}
}

// The hard memory cap: a stream spanning more magnitude than the bucket
// budget covers stays at MaxBuckets, collapsing the lowest buckets.
func TestSketchBucketBound(t *testing.T) {
	sk := NewSketch(0.01)
	for i := 0; i < 200_000; i++ {
		sk.Add(math.Exp(float64(i%400) - 200)) // e^-200 .. e^199
	}
	if len(sk.buckets) > DefaultSketchMaxBuckets {
		t.Fatalf("buckets = %d, cap %d", len(sk.buckets), DefaultSketchMaxBuckets)
	}
	// Upper quantiles keep their guarantee through collapses.
	got := sk.Quantile(1)
	want := math.Exp(199)
	if rel := math.Abs(got-want) / want; rel > 0.01+1e-9 {
		t.Fatalf("Quantile(1) = %v, want ~%v (rel err %v)", got, want, rel)
	}
}

// Properties pinned by the TrimmedMean contract fix: symmetric trimming
// at every trim (including >= 0.5, which used to be rewritten to 0.4999),
// bounded by min/max, equal to the mean at trim=0, equal to the median at
// trim >= 0.5.
func TestTrimmedMeanContractProperty(t *testing.T) {
	f := func(raw []uint16, trimRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := toFloats(raw)
		trim := float64(trimRaw) / 100 // 0 .. 2.55, deliberately past 0.5
		got, err := TrimmedMean(xs, trim)
		if err != nil {
			return false
		}
		mn, mx := slices.Min(xs), slices.Max(xs)
		if got < mn-1e-9 || got > mx+1e-9 {
			return false
		}
		if trim == 0 && !almost(got, Mean(xs)) {
			return false
		}
		if trim >= 0.5 {
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			median := sorted[len(sorted)/2]
			if len(sorted)%2 == 0 {
				median = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
			}
			if !almost(got, median) {
				return false
			}
		}
		// The trim count is exact and symmetric.
		k := int(float64(len(xs)) * trim)
		if m := (len(xs) - 1) / 2; k > m {
			k = m
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return almost(got, Mean(sorted[k:len(sorted)-k]))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
