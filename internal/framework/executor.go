package framework

import (
	"fmt"
	"time"

	"xsp/internal/cublas"
	"xsp/internal/cuda"
	"xsp/internal/cudnn"
	"xsp/internal/gpu"
	"xsp/internal/vclock"
)

// ElemLibrary supplies the GPU kernels a framework uses for element-wise
// layers. TensorFlow routes these through Eigen; MXNet has its own kernels.
// The choice is performance-critical for memory-bound models (the paper's
// Section IV-B framework comparison hinges on it).
type ElemLibrary interface {
	// Binary returns the kernel for a two-input element-wise op; op is
	// "product", "sum", or "max". The batch size drives the cache
	// behaviour of the kernel's DRAM traffic (gpu.CacheFactor).
	Binary(op string, elems float64, batch int) gpu.Kernel
	// Nary returns the kernel for an n-input element-wise sum.
	Nary(n int, elems float64, batch int) gpu.Kernel
	// Unary returns the kernel for a one-input element-wise op.
	Unary(op string, elems float64, batch int) gpu.Kernel
}

// Personality captures how one ML framework behaves on top of the shared
// CUDA/cuDNN substrate: fixed host-side costs, profiler overhead, runtime
// graph rewriting, and the element-wise kernel library.
type Personality struct {
	Name string

	// DispatchCPU is host time per executed layer (op scheduling,
	// kernel argument setup). The paper's framework comparison shows
	// MXNet's is several times TensorFlow's, which dominates online
	// (batch size 1) latency for compute-bound models.
	DispatchCPU time.Duration

	// FixedCPU is the per-prediction session cost (input feeding, run
	// setup, executor warm state checks), paid once per Run regardless
	// of batch size.
	FixedCPU time.Duration

	// WhereCPU is additional host time for Where layers (dynamic-shape
	// ops that synchronize and run host code; they dominate the paper's
	// object-detection models).
	WhereCPU time.Duration

	// LayerProfOverhead is added per layer when the framework profiler
	// is enabled. The paper measures 157ms over the 234 layers of
	// MLPerf_ResNet50_v1.5, i.e. ~0.67ms per layer for TensorFlow.
	LayerProfOverhead time.Duration

	// FusedBatchNorm: MXNet executes BatchNorm as one fused kernel;
	// TensorFlow rewrites it into Mul + Add layers at runtime (which is
	// why TF layer statistics report Mul/Add — Fig 4 of the paper).
	FusedBatchNorm bool

	// DepthwiseMemEff overrides the effective bandwidth of depthwise
	// convolution kernels, and DepthwiseKernelName their name.
	// TensorFlow ships its own DepthwiseConv2dNative CUDA kernel, well
	// below cuDNN's efficiency — a large part of why MXNet MobileNets
	// outrun TF's in the paper's Table X.
	DepthwiseMemEff     float64
	DepthwiseKernelName string

	// ConvEffScale derates the convolution kernels' compute efficiency
	// for this framework (layout and call-pattern differences around the
	// same cuDNN calls). 0 means 1.0. The paper observes TF and MXNet
	// ResNets reach about the same peak throughput even though MXNet's
	// element-wise path is leaner; a slightly less favourable conv path
	// is where the difference goes.
	ConvEffScale float64

	Elem ElemLibrary
}

// RunOptions configures one model-prediction run.
type RunOptions struct {
	// LayerProfiling enables the framework profiler: per-layer records
	// are captured, execution serializes at layer boundaries so GPU
	// time is attributed to its layer, and profiling overhead accrues.
	LayerProfiling bool

	// LibraryProfiling captures the ML-library API calls each layer
	// makes (cudnnConvolutionForward, cublasSgemm, ...) — the optional
	// stack level between layers and GPU kernels that the paper's
	// extensibility section describes. Adds a small host cost per call.
	LibraryProfiling bool

	// NoSerialize keeps execution pipelined even while layer profiling.
	// Layer records then cover only the host dispatch window and GPU
	// work may cross layer boundaries; XSP handles the resulting parent
	// ambiguity with a serialized re-run (CUDA_LAUNCH_BLOCKING).
	NoSerialize bool
}

// LibCallRecord is one ML-library API invocation captured by the library
// profiler: its name, host-side window, and the executed layer it served.
type LibCallRecord struct {
	Name       string
	LayerIndex int
	Begin, End vclock.Time
}

// libCallOverhead is the host cost of intercepting one library API call.
const libCallOverhead = 2 * time.Microsecond

// libCallName maps a layer type to the library API it calls.
func libCallName(t LayerType) string {
	switch t {
	case Conv2D:
		return "cudnnConvolutionForward"
	case DepthwiseConv:
		return "cudnnConvolutionForward(depthwise)"
	case MatMul:
		return "cublasSgemm"
	case MaxPool, AvgPool, Mean:
		return "cudnnPoolingForward"
	case Softmax:
		return "cudnnSoftmaxForward"
	case BatchNorm:
		return "cudnnBatchNormalizationForwardInference"
	case Data, Reshape:
		return ""
	default:
		return "launchElementwise"
	}
}

// LayerRecord is one entry of the framework profiler's output: index,
// name, type, shape, latency, and memory allocated for the layer — the
// fields the paper's A2 layer information table reports.
type LayerRecord struct {
	Index      int
	Name       string
	Type       LayerType
	Shape      Shape // output shape
	Begin, End vclock.Time
	AllocBytes int64
}

// RunResult is the outcome of one model-prediction run.
type RunResult struct {
	Model      string
	BatchSize  int
	Begin, End vclock.Time
	// Layers holds the framework profiler's records; nil when layer
	// profiling was disabled.
	Layers []LayerRecord
	// LibCalls holds the library profiler's records; nil when library
	// profiling was disabled.
	LibCalls []LibCallRecord
	// AllocTotal is the total bytes the framework allocated for layer
	// outputs and library workspaces during the run.
	AllocTotal int64
}

// Executor drives layer graphs through a CUDA context with one framework
// personality.
type Executor struct {
	p Personality
}

// NewExecutor returns an executor with the given personality.
func NewExecutor(p Personality) *Executor { return &Executor{p: p} }

// Name returns the framework name.
func (e *Executor) Name() string { return e.p.Name }

// expand applies the framework's runtime graph rewriting: TensorFlow
// decomposes each BatchNorm into a Mul followed by an Add, so the executed
// layer stream differs from the statically defined graph (Section III-D2).
func (e *Executor) expand(g *Graph) []*Layer {
	if e.p.FusedBatchNorm {
		return g.Layers
	}
	out := make([]*Layer, 0, len(g.Layers)+8)
	for _, l := range g.Layers {
		if l.Type != BatchNorm {
			out = append(out, l)
			continue
		}
		out = append(out,
			&Layer{Name: l.Name + "/mul", Type: Mul, In: l.In, Out: l.Out},
			&Layer{Name: l.Name + "/add", Type: Add, In: l.Out, Out: l.Out},
		)
	}
	return out
}

// planLayer maps one executed layer onto the library kernels it launches,
// returning the kernels and the workspace bytes the libraries allocate.
func (e *Executor) planLayer(l *Layer, arch gpu.Arch, availMem int64) ([]gpu.Kernel, int64) {
	elems := l.Out.Elems()
	switch l.Type {
	case Data, Reshape:
		return nil, 0 // metadata only, no device work
	case Conv2D, DepthwiseConv:
		p := cudnn.ConvParams{
			N: l.In.N, C: l.In.C, H: l.In.H, W: l.In.W,
			K: l.Conv.K, R: l.Conv.R, S: l.Conv.S,
			StrideH: l.Conv.StrideH, StrideW: l.Conv.StrideW,
			PadH: l.Conv.PadH, PadW: l.Conv.PadW,
			Groups: l.Conv.Groups,
		}
		kernels, ws := cudnn.Plan(p, arch, availMem)
		if s := e.p.ConvEffScale; s > 0 && s != 1 {
			for i := range kernels {
				kernels[i].ComputeEff *= s
			}
		}
		if l.Type == DepthwiseConv && e.p.DepthwiseMemEff > 0 {
			for i := range kernels {
				kernels[i].MemEff = e.p.DepthwiseMemEff
				if e.p.DepthwiseKernelName != "" {
					kernels[i].Name = e.p.DepthwiseKernelName
				}
			}
		}
		return kernels, ws
	case MatMul:
		return []gpu.Kernel{cublas.Kernel(cublas.GemmParams{M: l.Dense.M, K: l.Dense.K, N: l.Dense.N}, arch)}, 0
	case Mul:
		return []gpu.Kernel{e.p.Elem.Binary("product", elems, l.Out.N)}, 0
	case Add, BiasAdd:
		return []gpu.Kernel{e.p.Elem.Binary("sum", elems, l.Out.N)}, 0
	case Relu, Relu6:
		return []gpu.Kernel{e.p.Elem.Binary("max", elems, l.Out.N)}, 0
	case AddN:
		n := l.NumInputs
		if n < 2 {
			n = 2
		}
		return []gpu.Kernel{e.p.Elem.Nary(n, elems, l.Out.N)}, 0
	case Sigmoid:
		return []gpu.Kernel{e.p.Elem.Unary("sigmoid", elems, l.Out.N)}, 0
	case Tanh:
		return []gpu.Kernel{e.p.Elem.Unary("tanh", elems, l.Out.N)}, 0
	case BatchNorm:
		return []gpu.Kernel{cudnn.BatchNormKernel(elems, l.Out.N)}, 0
	case MaxPool:
		return []gpu.Kernel{cudnn.PoolingKernel("max", l.In.Bytes(), l.Out.Bytes())}, 0
	case AvgPool, Mean:
		return []gpu.Kernel{cudnn.PoolingKernel("avg", l.In.Bytes(), l.Out.Bytes())}, 0
	case Softmax:
		return []gpu.Kernel{cudnn.SoftmaxKernel(elems)}, 0
	case Pad, Transpose, Resize:
		return []gpu.Kernel{e.p.Elem.Unary("shuffle", elems, l.Out.N)}, 0
	case Concat:
		n := l.NumInputs
		if n < 2 {
			n = 2
		}
		return []gpu.Kernel{e.p.Elem.Nary(n, elems, l.Out.N)}, 0
	case Where:
		// Dynamic-shape gather: a small device kernel; the real cost
		// is host-side (handled by WhereCPU in the run loop).
		return []gpu.Kernel{{
			Name:  "where_op::GatherNd",
			Grid:  gpu.Dim3{int(elems/256) + 1, 1, 1},
			Block: gpu.Dim3{256, 1, 1},
			Flops: elems, DramRead: 8 * elems, DramWrite: 8 * elems,
			ComputeEff: 0.05, MemEff: 0.3, Occupancy: 0.25,
		}}, 0
	default:
		// Unknown layer types execute as a generic memory-bound op so
		// new zoo models degrade gracefully rather than silently
		// disappearing from the GPU profile.
		return []gpu.Kernel{e.p.Elem.Unary("generic", elems, l.Out.N)}, 0
	}
}

// PlanGraph returns the GPU kernels each executed layer of g would launch
// on the given architecture, without running anything: the framework's
// runtime rewriting is applied and each layer is planned against the
// libraries. Callers use it for lower-bound latency estimates (the sum of
// kernel times with no dispatch gaps) and for scheduling studies such as
// interleaving two models on separate streams.
func (e *Executor) PlanGraph(g *Graph, arch gpu.Arch, availMem int64) ([][]gpu.Kernel, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	layers := e.expand(g)
	out := make([][]gpu.Kernel, len(layers))
	for i, l := range layers {
		kernels, _ := e.planLayer(l, arch, availMem)
		out[i] = kernels
	}
	return out, nil
}

// Run performs one model prediction: host-to-device input copy, the layer
// stream, and the device-to-host output copy, mirroring the paper's
// TF_SessionRun / MXPredForward step. It returns the framework profiler's
// view of the run.
func (e *Executor) Run(g *Graph, ctx *cuda.Context, opts RunOptions) (*RunResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	layers := e.expand(g)
	clock := ctx.Clock()
	dev := ctx.Device()
	st := dev.DefaultStream()

	res := &RunResult{Model: g.Name, BatchSize: g.BatchSize(), Begin: clock.Now()}

	clock.Advance(e.p.FixedCPU)
	ctx.Memcpy("HtoD", int64(layers[0].In.Bytes()), st)

	for i, l := range layers {
		lBegin := clock.Now()
		clock.Advance(e.p.DispatchCPU)
		if l.Type == Where {
			// Where ops run host-side code per element of the batch
			// (gather/NMS bookkeeping), so their cost grows with batch
			// size — which is why the paper's detection models saturate
			// at small optimal batch sizes (8-16) despite negligible
			// GPU work.
			scale := 1 + 0.75*float64(l.In.N-1)
			clock.Advance(time.Duration(float64(e.p.WhereCPU) * scale))
		}
		kernels, workspace := e.planLayer(l, dev.Arch, dev.MemBytes)
		libBegin := clock.Now()
		if opts.LibraryProfiling {
			clock.Advance(libCallOverhead)
		}
		for _, k := range kernels {
			ctx.LaunchKernel(k, st)
		}
		if opts.LibraryProfiling && len(kernels) > 0 {
			if name := libCallName(l.Type); name != "" {
				res.LibCalls = append(res.LibCalls, LibCallRecord{
					Name: name, LayerIndex: i, Begin: libBegin, End: clock.Now(),
				})
			}
		}
		alloc := int64(l.Out.Bytes()) + workspace
		res.AllocTotal += alloc

		if opts.LayerProfiling {
			if !opts.NoSerialize {
				ctx.StreamSynchronize(st)
			}
			// The layer's reported latency ends before the profiler's
			// own bookkeeping: layer-level profiling adds overhead to
			// the model prediction but accurately captures the latency
			// of each layer (Section III-C).
			end := clock.Now()
			clock.Advance(e.p.LayerProfOverhead)
			res.Layers = append(res.Layers, LayerRecord{
				Index: i, Name: l.Name, Type: l.Type, Shape: l.Out,
				Begin: lBegin, End: end, AllocBytes: alloc,
			})
		}
	}

	ctx.DeviceSynchronize()
	last := layers[len(layers)-1]
	ctx.Memcpy("DtoH", int64(last.Out.Bytes()), st)
	res.End = clock.Now()

	if res.End.Before(res.Begin) {
		return nil, fmt.Errorf("framework: run ended before it began (clock misuse)")
	}
	return res, nil
}
