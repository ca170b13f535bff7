package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("Mean wrong")
	}
}

func TestTrimmedMean(t *testing.T) {
	if _, err := TrimmedMean(nil, 0.2); err != ErrEmpty {
		t.Error("expected ErrEmpty")
	}
	got, err := TrimmedMean([]float64{100, 1, 2, 3, 1000}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// sorted: 1 2 3 100 1000; k=1 -> mean(2,3,100)=35
	if !almost(got, 35) {
		t.Errorf("TrimmedMean = %v, want 35", got)
	}
	// trim=0 equals plain mean
	got, _ = TrimmedMean([]float64{1, 2, 3}, 0)
	if !almost(got, 2) {
		t.Errorf("TrimmedMean(trim=0) = %v", got)
	}
	// extreme trim still leaves the median
	got, _ = TrimmedMean([]float64{1, 2, 9}, 0.9)
	if !almost(got, 2) {
		t.Errorf("TrimmedMean(trim=0.9) = %v", got)
	}
	// negative trim clamps to 0
	got, _ = TrimmedMean([]float64{2, 4}, -1)
	if !almost(got, 3) {
		t.Errorf("TrimmedMean(trim<0) = %v", got)
	}
}

func TestWeightedMean(t *testing.T) {
	got := WeightedMean([]float64{10, 20}, []float64{1, 3})
	if !almost(got, 17.5) {
		t.Errorf("WeightedMean = %v", got)
	}
	if WeightedMean([]float64{1}, []float64{0}) != 0 {
		t.Error("zero-weight should yield 0")
	}
	// mismatched lengths use the shorter
	got = WeightedMean([]float64{10, 20, 30}, []float64{1, 1})
	if !almost(got, 15) {
		t.Errorf("WeightedMean(mismatch) = %v", got)
	}
}

// Min, Max and Sum are Online's: the summaries a stream keeps.
func TestMinMaxSum(t *testing.T) {
	var o Online
	for _, x := range []float64{3, 1, 2} {
		o.Add(x)
	}
	if o.Min() != 1 || o.Max() != 3 {
		t.Error("Min/Max wrong")
	}
	if o.Sum() != 6 {
		t.Error("Sum wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Error("expected ErrEmpty")
	}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {-5, 1}, {150, 5},
	} {
		got, err := Percentile(xs, tc.p)
		if err != nil || !almost(got, tc.want) {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	got, _ := Percentile([]float64{1, 2}, 75)
	if !almost(got, 1.75) {
		t.Errorf("interpolated percentile = %v", got)
	}
}

// StdDev is the population standard deviation, 0 for a single sample.
func TestStdDev(t *testing.T) {
	stddev := func(xs ...float64) float64 {
		var o Online
		for _, x := range xs {
			o.Add(x)
		}
		return o.StdDev()
	}
	if stddev(5) != 0 {
		t.Error("single sample stddev should be 0")
	}
	if got := stddev(2, 4, 4, 4, 5, 5, 7, 9); !almost(got, 2) {
		t.Errorf("StdDev = %v", got)
	}
}

// Property: trimmed mean lies within [min, max] of the sample.
func TestTrimmedMeanBoundedProperty(t *testing.T) {
	f := func(raw []uint16, trimRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		trim := float64(trimRaw%50) / 100
		got, err := TrimmedMean(xs, trim)
		if err != nil {
			return false
		}
		mn, mx := slices.Min(xs), slices.Max(xs)
		return got >= mn-1e-9 && got <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: weighted mean with equal weights equals the plain mean.
func TestWeightedMeanEqualWeightsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		ws := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
			ws[i] = 1
		}
		return almost(WeightedMean(xs, ws), Mean(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
