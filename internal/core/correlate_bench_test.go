package core_test

// The benchmarks live in an external test package so they can consume the
// synthetic generator (internal/workload imports internal/core).

import (
	"fmt"
	"testing"

	"xsp/internal/core"
	"xsp/internal/trace"
	"xsp/internal/workload"
)

var benchSizes = []int{10_000, 100_000, 1_000_000}

// BenchmarkCorrelate measures parent reconstruction on serialized
// synthetic traces, on the sweep-line fast path and the interval-tree
// fallback. The acceptance target is the sweep being ≥5x faster at 100k
// spans.
func BenchmarkCorrelate(b *testing.B) {
	for _, path := range []core.Path{core.PathSweep, core.PathTree} {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%v/%s", path, sizeName(n)), func(b *testing.B) {
				benchCorrelate(b, n, workload.SyntheticSpec{Spans: n, Seed: 42}, func(tr *trace.Trace) { core.CorrelateBy(tr, path) })
			})
		}
	}
	// The pipelined shape exercises Correlate's own path choice (the
	// fallback detection) plus tree correlation on an overlap-heavy trace.
	b.Run("auto/pipelined/100k", func(b *testing.B) {
		benchCorrelate(b, 100_000, workload.SyntheticSpec{Spans: 100_000, Streams: 2, Seed: 42}, core.Correlate)
	})
}

func benchCorrelate(b *testing.B, n int, spec workload.SyntheticSpec, correlate func(*trace.Trace)) {
	tr := workload.SyntheticTrace(spec)
	// Traces reach Correlate through the tracing server, which sorts them
	// (Memory.Trace calls SortByBegin); measure from that state.
	tr.SortByBegin()
	parents := make([]uint64, len(tr.Spans))
	for i, s := range tr.Spans {
		parents[i] = s.ParentID
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, s := range tr.Spans {
			s.ParentID = parents[j]
		}
		b.StartTimer()
		correlate(tr)
	}
}

func sizeName(n int) string {
	if n >= 1_000_000 {
		return fmt.Sprintf("%dM", n/1_000_000)
	}
	return fmt.Sprintf("%dk", n/1_000)
}

// Sanity for the benchmark harness itself: both paths fully resolve
// the synthetic trace (every kernel attributed to a layer).
func TestSyntheticTraceCorrelates(t *testing.T) {
	for _, path := range []core.Path{core.PathSweep, core.PathTree} {
		tr := workload.SyntheticTrace(workload.SyntheticSpec{Spans: 2_000, Seed: 7})
		core.CorrelateBy(tr, path)
		if core.Ambiguous(tr) {
			t.Fatalf("%v: serialized synthetic trace left ambiguous kernels", path)
		}
		for _, s := range tr.Spans[1:] {
			if s.ParentID == 0 {
				t.Fatalf("%v: span %d (%s) has no parent", path, s.ID, s.Level)
			}
		}
	}
}
