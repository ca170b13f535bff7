package mxnet

import (
	"strings"
	"testing"

	"xsp/internal/cuda"
	"xsp/internal/framework"
	"xsp/internal/gpu"
	"xsp/internal/tensorflow"
	"xsp/internal/vclock"
)

func bnGraph(n int) *framework.Graph {
	in := framework.Shape{N: n, C: 32, H: 56, W: 56}
	return &framework.Graph{Name: "bn", Layers: []*framework.Layer{
		{Name: "data", Type: framework.Data, In: in, Out: in},
		{Name: "block/BatchNorm", Type: framework.BatchNorm, In: in, Out: in},
		{Name: "block/Relu", Type: framework.Relu, In: in, Out: in},
	}}
}

func TestPersonalityIdentity(t *testing.T) {
	p := Personality()
	if p.Name != "mxnet" || !p.FusedBatchNorm {
		t.Fatalf("personality = %+v", p)
	}
	if p.DispatchCPU <= tensorflow.DispatchCPU {
		t.Fatal("MXNet per-layer host overhead must exceed TensorFlow's (Section IV-B)")
	}
}

// MXNet keeps BatchNorm fused: one executed layer, one cudnn bn kernel.
func TestBatchNormStaysFused(t *testing.T) {
	e := New()
	ctx := cuda.NewContext(gpu.NewDevice(gpu.TeslaV100), vclock.New(0))
	res, err := e.Run(bnGraph(4), ctx, framework.RunOptions{LayerProfiling: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 3 { // data + bn + relu
		t.Fatalf("executed layers = %d, want 3", len(res.Layers))
	}
	if res.Layers[1].Type != framework.BatchNorm {
		t.Fatalf("BN executed as %v", res.Layers[1].Type)
	}
}

func TestElementwiseKernels(t *testing.T) {
	var lib Library
	mul := lib.Binary("product", 1e6, 256)
	if !strings.Contains(mul.Name, "mshadow") {
		t.Errorf("kernel = %q", mul.Name)
	}
	if max := lib.Binary("max", 1e6, 256); max.Flops != 0 {
		t.Error("max should count no flops")
	}
	if lib.Nary(4, 1e6, 256).Flops != 3e6 {
		t.Error("nary flops wrong")
	}
	if lib.Nary(0, 1e6, 256).DramRead != lib.Nary(2, 1e6, 256).DramRead {
		t.Error("fan-in clamp wrong")
	}
	if lib.Unary("copy", 1e6, 256).DramWrite <= 0 {
		t.Error("unary write traffic missing")
	}
}

// MXNet element-wise kernels finish faster than TF's Eigen kernels for the
// same tensor — the mechanism behind the paper's MobileNet result.
func TestElementwiseFasterThanEigen(t *testing.T) {
	var lib Library
	tfLib := tensorflow.Personality().Elem
	elems := 1e7
	mx := gpu.TeslaV100.Duration(lib.Binary("product", elems, 256))
	tf := gpu.TeslaV100.Duration(tfLib.Binary("product", elems, 256))
	if mx >= tf {
		t.Fatalf("mxnet mul %v should beat eigen mul %v", mx, tf)
	}
}

// Online (batch 1) latency of a BN-heavy graph: MXNet pays more host
// overhead per layer; at batch 1 on a compute-light graph that shows up
// directly (paper: MXNet ResNet online latency 1.3-1.8x TF's).
func TestOnlineLatencyHigherThanTF(t *testing.T) {
	g := bnGraph(1)
	mxCtx := cuda.NewContext(gpu.NewDevice(gpu.TeslaV100), vclock.New(0))
	mxRes, err := New().Run(g, mxCtx, framework.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tfCtx := cuda.NewContext(gpu.NewDevice(gpu.TeslaV100), vclock.New(0))
	tfRes, err := tensorflow.New().Run(bnGraph(1), tfCtx, framework.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mxRes.End.Sub(mxRes.Begin) <= tfRes.End.Sub(tfRes.Begin) {
		t.Fatalf("MXNet online latency %v should exceed TF %v", mxRes.End.Sub(mxRes.Begin), tfRes.End.Sub(tfRes.Begin))
	}
}
