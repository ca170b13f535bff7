package bench

import (
	"sort"
	"time"

	"xsp/internal/stats"
)

// percentile is stats.Percentile for a sample known to be non-empty; an
// empty sample reads 0 so that a workload which took no samples of a kind
// reports a plain zero.
func percentile(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// tailPercentiles are the candidates SupportedPercentile chooses from,
// each with the share of samples beyond it as 1/oneIn.
var tailPercentiles = []struct {
	p     float64
	oneIn int
}{{90, 10}, {95, 20}, {99, 100}, {99.9, 1000}}

// SupportedPercentile is the reporting rule for a timing: the highest
// candidate percentile with at least ten samples beyond it, and the median
// when there is none.
func SupportedPercentile(samples int) float64 {
	best := 50.0
	for _, c := range tailPercentiles {
		if samples >= 10*c.oneIn {
			best = c.p
		}
	}
	return best
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// DueClock is the open-loop schedule: operation i is due at
// start + i*interval whatever happened to the ones before it, so a stall
// shows up as lateness and as latency of the operations queued behind it,
// never as a slower schedule.
type DueClock struct {
	Start    time.Time
	Interval time.Duration
}

// Due is when operation i should be sent.
func (c DueClock) Due(i int) time.Time { return c.Start.Add(time.Duration(i) * c.Interval) }

// Late reports whether an operation due at i that was actually sent at
// sent went out more than one interval behind schedule.
func (c DueClock) Late(i int, sent time.Time) bool { return sent.Sub(c.Due(i)) > c.Interval }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
