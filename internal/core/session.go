package core

import (
	"fmt"
	"strings"
	"time"

	"xsp/internal/cuda"
	"xsp/internal/cupti"
	"xsp/internal/framework"
	"xsp/internal/gpu"
	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// LevelSet selects which stack levels to profile in one run, mirroring the
// paper's M / M/L / M/L/G notation. Library is the optional ML-library
// level between layers and GPU kernels (the paper's extensibility example:
// tracing cuDNN API calls).
type LevelSet struct {
	Model   bool
	Layer   bool
	Library bool
	GPU     bool
}

// Common level sets.
var (
	M   = LevelSet{Model: true}
	ML  = LevelSet{Model: true, Layer: true}
	MG  = LevelSet{Model: true, GPU: true}
	MLG = LevelSet{Model: true, Layer: true, GPU: true}
)

// String renders the paper's notation, e.g. "M/L/G". Sets that skip the
// model level join the remaining levels the same way ("L/G", not "/L/G").
func (l LevelSet) String() string {
	parts := make([]string, 0, 4)
	if l.Model {
		parts = append(parts, "M")
	}
	if l.Layer {
		parts = append(parts, "L")
	}
	if l.Library {
		parts = append(parts, "Lib")
	}
	if l.GPU {
		parts = append(parts, "G")
	}
	return strings.Join(parts, "/")
}

// Options configures a profiling run.
type Options struct {
	Levels LevelSet

	// GPUMetrics lists CUPTI hardware counters to collect at the GPU
	// level (forces kernel replay; see package cupti). Ignored unless
	// Levels.GPU.
	GPUMetrics []string

	// Pipelined keeps the framework's execution pipelined during layer
	// profiling instead of serializing at layer boundaries. Kernel
	// execution may then cross layer boundaries; XSP falls back to a
	// serialized re-run when parent reconstruction is ambiguous.
	Pipelined bool

	// ActivityOnly disables the CUPTI callback API, capturing kernel
	// executions without their launch records — the disjoint-profiler
	// situation of Section III-A where parents can only be recovered by
	// interval containment, and a serialized re-run is needed whenever
	// execution crosses layer boundaries.
	ActivityOnly bool
}

// Per-image host costs of the model-level pipeline steps surrounding
// prediction (decode/resize on the way in, argmax/format on the way out).
const (
	preprocessPerImage  = 120 * time.Microsecond
	postprocessPerImage = 20 * time.Microsecond
)

// Session profiles one model family on one system with one framework.
type Session struct {
	exec *framework.Executor
	spec gpu.Spec
}

// NewSession returns a profiling session for the executor/system pair.
func NewSession(exec *framework.Executor, spec gpu.Spec) *Session {
	return &Session{exec: exec, spec: spec}
}

// Spec returns the session's GPU system.
func (s *Session) Spec() gpu.Spec { return s.spec }

// Result is the outcome of one profiled run.
type Result struct {
	Trace *trace.Trace
	// ModelSpan is the model-prediction span of this run (including any
	// profiling overhead active at the time).
	ModelSpan *trace.Span
	// Run is the framework's own view of the run.
	Run *framework.RunResult
	// Serialized reports whether XSP had to re-run with
	// CUDA_LAUNCH_BLOCKING-style serialization to disambiguate parents.
	Serialized bool
}

// env carries the shared profiling environment of a run: its clock,
// collector, and (for application-level profiling across several model
// predictions) the enclosing application span.
type env struct {
	clock     *vclock.Clock
	collector *trace.Memory
	appRoot   *trace.Span
}

// Profile runs the model once at the requested levels and returns the
// aggregated, correlated trace.
func (s *Session) Profile(g *framework.Graph, opts Options) (*Result, error) {
	return s.profile(g, opts, nil)
}

func (s *Session) profile(g *framework.Graph, opts Options, e *env) (*Result, error) {
	first := e
	if e != nil {
		// The collector is shared across runs, so the first attempt —
		// speculative until Ambiguous clears it — profiles into a scratch
		// collector. The attempt still runs on the shared clock under the
		// shared root (if any), so its spans drop into the shared timeline
		// unchanged if promoted.
		first = &env{clock: e.clock, collector: trace.NewMemory(), appRoot: e.appRoot}
	}
	res, err := s.profileOnce(g, opts, false, first)
	if err != nil {
		return nil, err
	}
	if !Ambiguous(res.Trace) {
		if e != nil {
			// Promote the attempt: its spans, parents already resolved in
			// place by correlate, move into the shared collector once.
			e.collector.Publish(res.Trace.Spans...)
		}
		return res, nil
	}
	// Parallel events made some parents ambiguous: re-run serialized
	// (the paper sets CUDA_LAUNCH_BLOCKING=1; no application changes).
	// The abandoned attempt's spans stay behind in the scratch collector.
	res, err = s.profileOnce(g, opts, true, e)
	if err != nil {
		return nil, err
	}
	res.Serialized = true
	return res, nil
}

func (s *Session) profileOnce(g *framework.Graph, opts Options, serialize bool, e *env) (*Result, error) {
	if !opts.Levels.Model {
		return nil, fmt.Errorf("core: model-level profiling cannot be disabled (it anchors the trace)")
	}
	clock, collector := vclock.New(0), trace.NewMemory()
	if e != nil {
		clock, collector = e.clock, e.collector
	}
	dev := gpu.NewDevice(s.spec)
	ctx := cuda.NewContext(dev, clock)
	if serialize {
		ctx.LaunchBlocking = true
	}

	// GPU-level tracer: a CUPTI session attached to the CUDA context.
	var cu *cupti.CUPTI
	if opts.Levels.GPU {
		var err error
		cu, err = cupti.New(cupti.Config{
			Callback: !opts.ActivityOnly,
			Activity: true,
			Metrics:  opts.GPUMetrics,
		})
		if err != nil {
			return nil, err
		}
		ctx.Attach(cu)
	}

	modelTracer := trace.NewTracer("xsp-model", trace.LevelModel, collector)
	appTracer := trace.NewTracer("xsp-app", trace.LevelApplication, collector)

	batch := float64(g.BatchSize())

	// Model-level pipeline: pre-process -> predict -> post-process, with
	// the tracing API placed around each step (two lines per step, as
	// the paper advertises). Inside an application context the enclosing
	// application span is the root; otherwise each run gets its own.
	var root *trace.Span
	ownRoot := e == nil || e.appRoot == nil
	if ownRoot {
		root = appTracer.StartSpan("evaluate", clock.Now())
	} else {
		root = e.appRoot
	}

	pre := modelTracer.StartSpan("input_preprocess", clock.Now())
	clock.Advance(time.Duration(batch * float64(preprocessPerImage)))
	modelTracer.FinishSpan(pre, clock.Now())

	predict := modelTracer.StartSpan("model_prediction", clock.Now())
	run, err := s.exec.Run(g, ctx, framework.RunOptions{
		LayerProfiling:   opts.Levels.Layer,
		LibraryProfiling: opts.Levels.Library,
		NoSerialize:      opts.Pipelined && !serialize,
	})
	if err != nil {
		return nil, err
	}
	modelTracer.FinishSpan(predict, clock.Now())

	post := modelTracer.StartSpan("output_postprocess", clock.Now())
	clock.Advance(time.Duration(batch * float64(postprocessPerImage)))
	modelTracer.FinishSpan(post, clock.Now())

	if ownRoot {
		appTracer.FinishSpan(root, clock.Now())
	}
	pre.ParentID = root.ID
	predict.ParentID = root.ID
	post.ParentID = root.ID

	// Layer-level tracer: convert the framework profiler's output
	// offline (adds no overhead beyond the profiler's own). Layer spans
	// are direct children of the prediction span.
	layerTracer := trace.NewTracer(s.exec.Name()+"-profiler", trace.LevelLayer, collector)
	if opts.Levels.Layer {
		for _, lr := range run.Layers {
			sp := &trace.Span{
				ID:       trace.NewSpanID(),
				ParentID: predict.ID,
				Level:    trace.LevelLayer,
				Name:     lr.Name,
				Source:   layerTracer.Source(),
				Begin:    lr.Begin,
				End:      lr.End,
			}
			sp.SetTag("layer_index", fmt.Sprint(lr.Index))
			sp.SetTag("layer_type", string(lr.Type))
			sp.SetTag("layer_shape", lr.Shape.String())
			sp.SetMetric("alloc_bytes", float64(lr.AllocBytes))
			layerTracer.PublishCompleted(sp)
		}
	}

	// Library-level tracer: the ML-library API calls each layer made,
	// converted offline like the layer records. Their parents are left
	// to interval-tree reconstruction, as a third-party library tracer
	// would not share identifiers with the framework profiler.
	if opts.Levels.Library {
		libTracer := trace.NewTracer("cudnn-api", trace.LevelLibrary, collector)
		for _, lc := range run.LibCalls {
			sp := &trace.Span{
				ID:     trace.NewSpanID(),
				Level:  trace.LevelLibrary,
				Name:   lc.Name,
				Source: libTracer.Source(),
				Begin:  lc.Begin,
				End:    lc.End,
			}
			sp.SetTag("layer_index", fmt.Sprint(lc.LayerIndex))
			libTracer.PublishCompleted(sp)
		}
	}

	// GPU-level tracer: CUPTI records become launch + execution spans.
	gpuTracer := trace.NewTracer("cupti", trace.LevelKernel, collector)
	if opts.Levels.GPU {
		for _, api := range cu.APIRecords() {
			sp := &trace.Span{
				ID:            trace.NewSpanID(),
				Level:         trace.LevelKernel,
				Kind:          trace.KindLaunch,
				Name:          api.Name,
				Source:        gpuTracer.Source(),
				Begin:         api.Begin,
				End:           api.End,
				CorrelationID: api.CorrelationID,
			}
			gpuTracer.PublishCompleted(sp)
		}
		for _, kr := range cu.KernelRecords() {
			sp := &trace.Span{
				ID:            trace.NewSpanID(),
				Level:         trace.LevelKernel,
				Kind:          trace.KindExec,
				Name:          kr.Kernel.Name,
				Source:        gpuTracer.Source(),
				Begin:         kr.Begin,
				End:           kr.End,
				CorrelationID: kr.CorrelationID,
			}
			sp.SetTag("grid", kr.Kernel.Grid.String())
			sp.SetTag("block", kr.Kernel.Block.String())
			sp.SetTag("stream", fmt.Sprint(kr.Stream))
			// Without metric collection CUPTI still knows the kernel
			// identity; metrics are attached only when requested — in the
			// order they were requested, which is the order the span holds
			// and encodes them in: ranging over the map would make two
			// profiles of one model encode to different bytes.
			values := cu.Metrics(kr)
			for _, name := range opts.GPUMetrics {
				if v, ok := values[name]; ok {
					sp.SetMetric(name, v)
				}
			}
			gpuTracer.PublishCompleted(sp)
		}
		for _, mr := range cu.MemcpyRecords() {
			sp := &trace.Span{
				ID:            trace.NewSpanID(),
				Level:         trace.LevelKernel,
				Kind:          trace.KindExec,
				Name:          "Memcpy" + mr.Direction,
				Source:        gpuTracer.Source(),
				Begin:         mr.Begin,
				End:           mr.End,
				CorrelationID: mr.CorrelationID,
			}
			sp.SetMetric("bytes", float64(mr.Bytes))
			gpuTracer.PublishCompleted(sp)
		}
	}

	tr := collector.Trace()
	correlate(tr)
	return &Result{Trace: tr, ModelSpan: predict, Run: run}, nil
}
