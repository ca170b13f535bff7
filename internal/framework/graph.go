// Package framework defines the ML-framework substrate shared by the
// simulated TensorFlow and MXNet executors: the layer graph IR, tensor
// shapes, the executor that drives a model through the CUDA runtime, and
// the framework profiler whose output XSP wraps as the layer-level tracer.
package framework

import (
	"fmt"
)

// LayerType is the operator type of a layer, using TensorFlow's op names
// (the paper reports TF types such as Conv2D, DepthwiseConv2dNative, Mul,
// Add, AddN, Relu, and Where).
type LayerType string

// Layer types that appear in the simulated model zoo.
const (
	Data          LayerType = "Data"
	Conv2D        LayerType = "Conv2D"
	DepthwiseConv LayerType = "DepthwiseConv2dNative"
	BatchNorm     LayerType = "BatchNorm"
	Mul           LayerType = "Mul"
	Add           LayerType = "Add"
	AddN          LayerType = "AddN"
	BiasAdd       LayerType = "BiasAdd"
	Relu          LayerType = "Relu"
	Relu6         LayerType = "Relu6"
	Sigmoid       LayerType = "Sigmoid"
	Tanh          LayerType = "Tanh"
	MaxPool       LayerType = "MaxPool"
	AvgPool       LayerType = "AvgPool"
	Mean          LayerType = "Mean"
	MatMul        LayerType = "MatMul"
	Softmax       LayerType = "Softmax"
	Pad           LayerType = "Pad"
	Where         LayerType = "Where"
	Transpose     LayerType = "Transpose"
	Concat        LayerType = "ConcatV2"
	Reshape       LayerType = "Reshape"
	Resize        LayerType = "ResizeBilinear"
)

// Shape is a dense NCHW tensor shape. Fully-connected activations use
// H=W=1.
type Shape struct {
	N, C, H, W int
}

// Elems returns the element count.
func (s Shape) Elems() float64 {
	n, c, h, w := s.N, s.C, s.H, s.W
	if n == 0 {
		n = 1
	}
	if c == 0 {
		c = 1
	}
	if h == 0 {
		h = 1
	}
	if w == 0 {
		w = 1
	}
	return float64(n) * float64(c) * float64(h) * float64(w)
}

// Bytes returns the tensor size in bytes at 4 bytes/element (FP32).
func (s Shape) Bytes() float64 { return s.Elems() * 4 }

// String formats like the paper's layer shape column, e.g. "<256,64,112,112>".
func (s Shape) String() string {
	return fmt.Sprintf("<%d,%d,%d,%d>", s.N, s.C, s.H, s.W)
}

// ConvSpec holds convolution hyper-parameters. Groups == input channels
// denotes a depthwise convolution.
type ConvSpec struct {
	K       int // output channels
	R, S    int // filter height, width
	StrideH int
	StrideW int
	PadH    int
	PadW    int
	Groups  int // 1 for dense convolution
}

// OutShape returns the output shape of the convolution applied to in.
func (c ConvSpec) OutShape(in Shape) Shape {
	sh, sw := c.StrideH, c.StrideW
	if sh == 0 {
		sh = 1
	}
	if sw == 0 {
		sw = 1
	}
	oh := (in.H+2*c.PadH-c.R)/sh + 1
	ow := (in.W+2*c.PadW-c.S)/sw + 1
	return Shape{N: in.N, C: c.K, H: oh, W: ow}
}

// WeightBytes returns the size of the filter tensor in bytes.
func (c ConvSpec) WeightBytes(inChannels int) float64 {
	g := c.Groups
	if g == 0 {
		g = 1
	}
	return float64(c.K) * float64(inChannels) / float64(g) * float64(c.R) * float64(c.S) * 4
}

// MatMulSpec holds dense (fully-connected) layer parameters: the layer
// computes an (M x K) by (K x N) product, where M is the batch dimension.
type MatMulSpec struct {
	M, K, N int
}

// Flops returns the multiply-accumulate flop count of the product.
func (m MatMulSpec) Flops() float64 {
	return 2 * float64(m.M) * float64(m.K) * float64(m.N)
}

// Layer is one node in the executed layer graph.
type Layer struct {
	Name string
	Type LayerType
	In   Shape
	Out  Shape

	// NumInputs is the fan-in for variadic ops (AddN, ConcatV2).
	NumInputs int

	Conv  *ConvSpec   // set for Conv2D / DepthwiseConv2dNative
	Dense *MatMulSpec // set for MatMul
}

// Flops returns the layer's algorithmic flop count (the work a perfect
// implementation would do; libraries may do more, e.g. FFT convolution).
func (l *Layer) Flops() float64 {
	switch l.Type {
	case Conv2D, DepthwiseConv:
		if l.Conv == nil {
			return 0
		}
		g := l.Conv.Groups
		if g == 0 {
			g = 1
		}
		return 2 * l.Out.Elems() * float64(l.In.C) / float64(g) * float64(l.Conv.R) * float64(l.Conv.S)
	case MatMul:
		if l.Dense == nil {
			return 0
		}
		return l.Dense.Flops()
	case Mul, Add, BiasAdd, Relu, Relu6, AddN, Sigmoid, Tanh, BatchNorm:
		return l.Out.Elems()
	default:
		return 0
	}
}

// Graph is an executed-layer graph for one model at one batch size. Layers
// are stored in execution order; the simulated frameworks execute them
// sequentially, as TF and MXNet do for these inference graphs.
type Graph struct {
	Name   string
	Layers []*Layer
}

// BatchSize returns the batch dimension of the graph's first layer.
func (g *Graph) BatchSize() int {
	if len(g.Layers) == 0 {
		return 0
	}
	return g.Layers[0].In.N
}

// Validate checks structural invariants: non-empty, every layer named and
// typed, conv/matmul params present where required, output shapes
// consistent with conv specs, and a uniform batch dimension.
func (g *Graph) Validate() error {
	if g.Name == "" {
		return fmt.Errorf("framework: graph has no name")
	}
	if len(g.Layers) == 0 {
		return fmt.Errorf("framework: graph %s has no layers", g.Name)
	}
	batch := g.Layers[0].In.N
	for i, l := range g.Layers {
		if l.Name == "" {
			return fmt.Errorf("framework: %s layer %d has no name", g.Name, i)
		}
		if l.Type == "" {
			return fmt.Errorf("framework: %s layer %d (%s) has no type", g.Name, i, l.Name)
		}
		switch l.Type {
		case Conv2D, DepthwiseConv:
			if l.Conv == nil {
				return fmt.Errorf("framework: %s conv layer %s lacks ConvSpec", g.Name, l.Name)
			}
			if got := l.Conv.OutShape(l.In); got != l.Out {
				return fmt.Errorf("framework: %s layer %s out shape %v, conv spec implies %v", g.Name, l.Name, l.Out, got)
			}
		case MatMul:
			if l.Dense == nil {
				return fmt.Errorf("framework: %s matmul layer %s lacks MatMulSpec", g.Name, l.Name)
			}
		}
		if l.In.N != batch || l.Out.N != batch {
			return fmt.Errorf("framework: %s layer %s batch %d/%d differs from graph batch %d", g.Name, l.Name, l.In.N, l.Out.N, batch)
		}
	}
	return nil
}

// TotalFlops returns the algorithmic flops of the whole graph.
func (g *Graph) TotalFlops() float64 {
	var f float64
	for _, l := range g.Layers {
		f += l.Flops()
	}
	return f
}

// ParamBytes returns the FP32 size of the graph's learned parameters
// (convolution filters and dense weight matrices) — the bulk of the frozen
// graph size Table VIII reports per model.
func (g *Graph) ParamBytes() float64 {
	var total float64
	for _, l := range g.Layers {
		switch l.Type {
		case Conv2D, DepthwiseConv:
			if l.Conv != nil {
				total += l.Conv.WeightBytes(l.In.C)
			}
		case MatMul:
			if l.Dense != nil {
				total += 4 * float64(l.Dense.K) * float64(l.Dense.N)
			}
		case BatchNorm:
			total += 4 * 4 * float64(l.Out.C) // scale, offset, mean, variance
		}
	}
	return total
}

// ActivationBytes returns the FP32 size of every layer output — an upper
// bound on live activation memory, and the per-image streaming footprint
// that decides whether a model is memory-bound.
func (g *Graph) ActivationBytes() float64 {
	var total float64
	for _, l := range g.Layers {
		total += l.Out.Bytes()
	}
	return total
}
