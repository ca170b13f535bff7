package workload

import (
	"math/rand"
	"strconv"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// SyntheticSpec shapes a generated large trace. The generator exists to
// exercise and benchmark the correlation and trace-query paths at sizes
// (10k-1M spans) the simulated models never reach.
type SyntheticSpec struct {
	// Spans is the approximate total span count; the generator derives
	// the layer count from it and may come in slightly under.
	Spans int

	// KernelsPerLayer is the number of launch/exec kernel pairs nested in
	// each layer. Defaults to 8.
	KernelsPerLayer int

	// Streams is the number of concurrent layer timelines. 1 (the
	// default) yields the serialized, properly nested trace the paper's
	// profilers produce; >1 offsets the timelines so layer spans cross,
	// which defeats the sweep-line fast path and lands on the
	// interval-tree fallback, as pipelined execution does.
	Streams int

	// DropLaunches omits the kernel launch spans, leaving device-only
	// execution records with no correlation partner — the activity-API
	// capture mode, which forces per-exec containment fallback.
	DropLaunches bool

	// LayerTypes, when non-empty, cycles these type names across layers:
	// each layer span gains layer_type and layer_shape tags and an
	// alloc_bytes metric, giving the layer-type analyses (A5-A7) signal.
	// Empty leaves layers untyped, the pre-analysis shape.
	LayerTypes []string

	// KernelMetrics attaches deterministic GPU metrics to every kernel
	// execution span (flop_count_sp, dram_read_bytes, dram_write_bytes,
	// achieved_occupancy), giving the roofline analyses (A8/A9) signal.
	KernelMetrics bool

	// MemcpysPerLayer inserts that many memory-copy execution spans
	// (alternating MemcpyHtoD/MemcpyDtoH, each with a bytes metric) after
	// each layer's kernels, giving the memcpy analyses signal.
	MemcpysPerLayer int

	// Prelinked fills every span's ParentID with the ground-truth parent,
	// producing an already-correlated trace. Use it to exercise parent
	// walks (FormatTree, the analyses) without running core.Correlate
	// first; leave it false to give Correlate work.
	Prelinked bool

	// Seed drives the deterministic pseudo-random durations.
	Seed int64
}

func (s SyntheticSpec) withDefaults() SyntheticSpec {
	if s.Spans <= 0 {
		s.Spans = 10_000
	}
	if s.KernelsPerLayer <= 0 {
		s.KernelsPerLayer = 8
	}
	if s.Streams <= 0 {
		s.Streams = 1
	}
	return s
}

// SyntheticTrace generates a deterministic model/layer/kernel trace of
// roughly spec.Spans spans. Layer and kernel spans carry no ParentID, so
// core.Correlate has the full reconstruction to do; launch/exec pairs
// share correlation ids. Span IDs are local (1..n) and only unique within
// the returned trace.
func SyntheticTrace(spec SyntheticSpec) *trace.Trace {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))

	spansPerKernel := 2
	if spec.DropLaunches {
		spansPerKernel = 1
	}
	perLayer := 1 + spansPerKernel*spec.KernelsPerLayer + spec.MemcpysPerLayer
	layers := (spec.Spans - 1) / perLayer
	if layers < spec.Streams {
		layers = spec.Streams
	}

	var (
		nextID uint64
		corrID uint64
	)
	id := func() uint64 { nextID++; return nextID }

	tr := &trace.Trace{Spans: make([]*trace.Span, 0, 1+layers*perLayer)}
	model := &trace.Span{ID: id(), Level: trace.LevelModel, Name: "model_prediction"}
	tr.Spans = append(tr.Spans, model)

	// Each stream is its own serialized layer sequence; streams beyond
	// the first start mid-way through the previous stream's first layer
	// so that layer intervals cross.
	var end vclock.Time
	for stream := 0; stream < spec.Streams; stream++ {
		cursor := vclock.Time(stream) * 37
		for li := stream; li < layers; li += spec.Streams {
			layer := &trace.Span{
				ID:    id(),
				Level: trace.LevelLayer,
				Name:  "layer",
				Begin: cursor,
			}
			if spec.Prelinked {
				layer.ParentID = model.ID
			}
			layer.SetTag("layer_index", strconv.Itoa(li))
			if len(spec.LayerTypes) > 0 {
				layer.SetTag("layer_type", spec.LayerTypes[li%len(spec.LayerTypes)])
				layer.SetTag("layer_shape", "1x"+strconv.Itoa(64<<(li%4)))
				layer.SetMetric("alloc_bytes", float64(1024*(1+rng.Intn(4096))))
			}
			inner := cursor + 1
			var kernelParent uint64
			if spec.Prelinked {
				kernelParent = layer.ID
			}
			for k := 0; k < spec.KernelsPerLayer; k++ {
				corrID++
				dur := vclock.Time(1 + rng.Intn(40))
				if !spec.DropLaunches {
					tr.Spans = append(tr.Spans, &trace.Span{
						ID: id(), ParentID: kernelParent, Level: trace.LevelKernel,
						Kind: trace.KindLaunch, Name: "cudaLaunchKernel",
						Begin: inner, End: inner + 2, CorrelationID: corrID,
					})
				}
				exec := &trace.Span{
					ID: id(), ParentID: kernelParent, Level: trace.LevelKernel,
					Kind: trace.KindExec, Name: "synthetic_kernel",
					Begin: inner + 2, End: inner + 2 + dur, CorrelationID: corrID,
				}
				if spec.KernelMetrics {
					exec.SetMetric("flop_count_sp", float64(1e6*(1+rng.Intn(4000))))
					exec.SetMetric("dram_read_bytes", float64(4096*(1+rng.Intn(2000))))
					exec.SetMetric("dram_write_bytes", float64(4096*(1+rng.Intn(1000))))
					exec.SetMetric("achieved_occupancy", float64(1+rng.Intn(100))/100)
				}
				tr.Spans = append(tr.Spans, exec)
				inner = exec.End + 1
			}
			for m := 0; m < spec.MemcpysPerLayer; m++ {
				name := "MemcpyHtoD"
				if m%2 == 1 {
					name = "MemcpyDtoH"
				}
				cp := &trace.Span{
					ID: id(), ParentID: kernelParent, Level: trace.LevelKernel,
					Kind: trace.KindExec, Name: name,
					Begin: inner, End: inner + vclock.Time(1+rng.Intn(10)),
				}
				cp.SetMetric("bytes", float64(1024*(1+rng.Intn(1<<14))))
				tr.Spans = append(tr.Spans, cp)
				inner = cp.End + 1
			}
			layer.End = inner + 1
			tr.Spans = append(tr.Spans, layer)
			cursor = layer.End + vclock.Time(1+rng.Intn(5))
		}
		if cursor > end {
			end = cursor
		}
	}
	model.End = end + 1
	return tr
}
