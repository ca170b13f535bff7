// Package analysis implements XSP's automated across-stack analysis
// pipeline: the 15 analyses of the paper's Table I, grouped by the
// profiling levels they require (A1: model; A2-A7: layer; A8-A10: GPU
// kernel; A11-A15: combined). The pipeline consumes traces published to
// the tracing server, correlates the same performance value across a
// user-defined number of evaluations, and summarizes with a trimmed mean.
//
// Each analysis has one implementation. The batch form (RunSet) holds the
// paper's A1–A15 over finished traces of repeated, leveled runs: every one
// summarizes a value across runs with a trimmed mean, which needs the
// samples, and A8–A15 also match per-kernel rows by occurrence across runs,
// so none of them can run on a stream. The streaming form (Online) is the
// only implementation of the live analyses — layer latencies, launch-gap
// queue delay, memcpy totals with copy/compute overlap, and roofline
// buckets — consuming spans as a core.StreamObserver in bounded memory:
// exact running moments (stats.Online), quantiles from a bounded sketch
// (stats.Sketch), launch/exec pairing through capped FIFO tables, and an
// O(1) copy/kernel overlap sweep. FuzzOnlineVsBatch pins Online's layer
// view to A2/A3/A6 at Trim 0 and its other three analyses to reference
// implementations kept with the tests, over the same accepted spans,
// including across checkpoint folds and mid-stream recovery.
package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"xsp/internal/gpu"
	"xsp/internal/stats"
	"xsp/internal/trace"
)

// DefaultTrim is the default trimmed-mean fraction applied across runs.
const DefaultTrim = 0.2

// RunSet is a collection of traces from repeated evaluations of the same
// model/batch/system, plus the system spec needed for roofline
// classification.
//
// Per leveled experimentation (Section III-C), profiling a level adds
// overhead to every level above it, so each analysis reads its values from
// the trace where they are accurate: kernel identities/metrics/latencies
// from the deepest (M/L/G) traces, layer latencies from M/L traces when
// provided, and the model-prediction latency from M traces when provided.
// Without the optional layer/model traces the deepest traces serve all
// levels (fine when GPU metric replay is off and profiling overhead is
// tolerable).
type RunSet struct {
	Spec   gpu.Spec
	Traces []*trace.Trace // M/L/G traces (kernel-level ground truth)
	Trim   float64

	layerTraces []*trace.Trace // optional M/L traces
	modelTraces []*trace.Trace // optional M traces
}

// NewRunSet bundles traces for analysis. At least one trace is required;
// the trim fraction defaults to DefaultTrim.
func NewRunSet(spec gpu.Spec, traces ...*trace.Trace) (*RunSet, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("analysis: a run set needs at least one trace")
	}
	return &RunSet{Spec: spec, Traces: traces, Trim: DefaultTrim}, nil
}

// WithLayerTraces supplies M/L traces whose layer latencies are free of
// GPU-level profiling overhead. Returns rs for chaining.
func (rs *RunSet) WithLayerTraces(traces ...*trace.Trace) *RunSet {
	rs.layerTraces = traces
	return rs
}

// WithModelTraces supplies M traces whose model-prediction latency is free
// of all lower-level profiling overhead. Returns rs for chaining.
func (rs *RunSet) WithModelTraces(traces ...*trace.Trace) *RunSet {
	rs.modelTraces = traces
	return rs
}

func (rs *RunSet) layerSource() []*trace.Trace {
	if len(rs.layerTraces) > 0 {
		return rs.layerTraces
	}
	return rs.Traces
}

func (rs *RunSet) modelSource() []*trace.Trace {
	if len(rs.modelTraces) > 0 {
		return rs.modelTraces
	}
	if len(rs.layerTraces) > 0 {
		return rs.layerTraces
	}
	return rs.Traces
}

// summarize applies the cross-run statistical summary (trimmed mean).
func (rs *RunSet) summarize(xs []float64) float64 {
	v, err := stats.TrimmedMean(xs, rs.Trim)
	if err != nil {
		return 0
	}
	return v
}

// ms converts nanoseconds to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// mb converts bytes to megabytes (decimal, as the paper's tables use).
func mb(b float64) float64 { return b / 1e6 }

// PredictionLatencyMS returns the trimmed-mean model-prediction latency
// across the runs, in milliseconds, preferring the most accurate level
// available (M, then M/L, then the deepest traces).
func (rs *RunSet) PredictionLatencyMS() float64 {
	var xs []float64
	for _, t := range rs.modelSource() {
		if sp := t.Find("model_prediction"); sp != nil {
			xs = append(xs, ms(sp.Duration()))
		}
	}
	return rs.summarize(xs)
}

// layerKey identifies the same layer across runs.
type layerKey struct {
	index int
	name  string
}

// layerGroup is one layer's spans across runs.
type layerGroup struct {
	key       layerKey
	layerType string
	shape     string
	alloc     float64 // bytes
	lat       []float64
	spans     []*trace.Span
}

// layerGroups correlates layer spans across runs by layer index, in
// execution order, reading latencies from the most accurate source (M/L
// traces when provided).
func (rs *RunSet) layerGroups() []*layerGroup {
	byKey := map[layerKey]*layerGroup{}
	var order []layerKey
	for _, t := range rs.layerSource() {
		for _, sp := range t.ByLevel(trace.LevelLayer) {
			idx, err := strconv.Atoi(sp.Tag("layer_index"))
			if err != nil {
				continue
			}
			k := layerKey{index: idx, name: sp.Name}
			g, ok := byKey[k]
			if !ok {
				g = &layerGroup{
					key:       k,
					layerType: sp.Tag("layer_type"),
					shape:     sp.Tag("layer_shape"),
					alloc:     sp.Metric("alloc_bytes"),
				}
				byKey[k] = g
				order = append(order, k)
			}
			g.lat = append(g.lat, ms(sp.Duration()))
			g.spans = append(g.spans, sp)
		}
	}
	out := make([]*layerGroup, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[k])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key.index < out[j].key.index })
	return out
}

// kernelGroup is one kernel invocation's spans across runs, identified by
// occurrence order within the trace.
type kernelGroup struct {
	name       string
	layerIndex int // -1 when not attributed to a layer
	lat        []float64
	flops      float64
	reads      float64
	writes     float64
	occupancy  float64
}

// isKernelExec reports whether a span is a kernel execution record (not a
// memory copy).
func isKernelExec(sp *trace.Span) bool {
	return sp.Level == trace.LevelKernel && sp.Kind == trace.KindExec &&
		!strings.HasPrefix(sp.Name, "Memcpy")
}

// kernelGroups correlates kernel execution spans across runs by occurrence
// order. The layer index comes from the span's reconstructed ancestry:
// when an ML-library level is interposed between layers and kernels, the
// kernel's parent is the library-call span, so attribution walks up the
// parent chain until it reaches a layer span.
func (rs *RunSet) kernelGroups() []*kernelGroup {
	var out []*kernelGroup
	for run, t := range rs.Traces {
		byID := t.SpansByID()
		layerIndexOf := func(sp *trace.Span) int {
			for hops := 0; sp != nil && hops < 8; hops++ {
				if sp.Level == trace.LevelLayer {
					if idx, err := strconv.Atoi(sp.Tag("layer_index")); err == nil {
						return idx
					}
					return -1
				}
				sp = byID[sp.ParentID]
			}
			return -1
		}
		i := 0
		for _, sp := range t.Spans {
			if !isKernelExec(sp) {
				continue
			}
			if run == 0 {
				out = append(out, &kernelGroup{
					name:       sp.Name,
					layerIndex: layerIndexOf(byID[sp.ParentID]),
					flops:      sp.Metric("flop_count_sp"),
					reads:      sp.Metric("dram_read_bytes"),
					writes:     sp.Metric("dram_write_bytes"),
					occupancy:  sp.Metric("achieved_occupancy"),
				})
			}
			if i < len(out) && out[i].name == sp.Name {
				out[i].lat = append(out[i].lat, ms(sp.Duration()))
			}
			i++
		}
	}
	return out
}

// Roofline classification helpers (Section III-D3).

// ArithmeticIntensity returns flops per byte of DRAM traffic.
func ArithmeticIntensity(flops, readBytes, writeBytes float64) float64 {
	if readBytes+writeBytes == 0 {
		return 0
	}
	return flops / (readBytes + writeBytes)
}

// ArithmeticThroughputTFlops returns flops over latency in Tflops/s.
func ArithmeticThroughputTFlops(flops float64, latencyMS float64) float64 {
	if latencyMS == 0 {
		return 0
	}
	return flops / (latencyMS * 1e-3) / 1e12
}

// MemoryBound reports whether the intensity falls below the system's ideal
// arithmetic intensity (peak FLOPS / memory bandwidth).
func (rs *RunSet) MemoryBound(intensity float64) bool {
	return intensity < rs.Spec.IdealArithmeticIntensity()
}
