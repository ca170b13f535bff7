package framework

import (
	"testing"
	"time"

	"xsp/internal/cuda"
	"xsp/internal/eigen"
	"xsp/internal/gpu"
	"xsp/internal/vclock"
)

func testPersonality() Personality {
	return Personality{
		Name:              "testfw",
		DispatchCPU:       4 * time.Microsecond,
		WhereCPU:          300 * time.Microsecond,
		LayerProfOverhead: 670 * time.Microsecond,
		FusedBatchNorm:    false,
		Elem:              eigen.Library{},
	}
}

// tinyGraph builds data -> conv -> bn -> relu -> softmax at batch n.
func tinyGraph(n int) *Graph {
	in := Shape{N: n, C: 3, H: 32, W: 32}
	conv := &ConvSpec{K: 16, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	convOut := conv.OutShape(in)
	return &Graph{
		Name: "tiny",
		Layers: []*Layer{
			{Name: "data", Type: Data, In: in, Out: in},
			{Name: "conv1/Conv2D", Type: Conv2D, In: in, Out: convOut, Conv: conv},
			{Name: "conv1/BatchNorm", Type: BatchNorm, In: convOut, Out: convOut},
			{Name: "conv1/Relu", Type: Relu, In: convOut, Out: convOut},
			{Name: "softmax", Type: Softmax, In: convOut, Out: convOut},
		},
	}
}

func newRig() (*cuda.Context, *vclock.Clock) {
	clock := vclock.New(0)
	return cuda.NewContext(gpu.NewDevice(gpu.TeslaV100), clock), clock
}

func TestValidateCatchesBrokenGraphs(t *testing.T) {
	good := tinyGraph(4)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	cases := map[string]func(*Graph){
		"no name":        func(g *Graph) { g.Name = "" },
		"no layers":      func(g *Graph) { g.Layers = nil },
		"unnamed layer":  func(g *Graph) { g.Layers[1].Name = "" },
		"untyped layer":  func(g *Graph) { g.Layers[1].Type = "" },
		"conv no spec":   func(g *Graph) { g.Layers[1].Conv = nil },
		"conv bad shape": func(g *Graph) { g.Layers[1].Out.H = 7 },
		"batch mismatch": func(g *Graph) { g.Layers[3].In.N = 99; g.Layers[3].Out.N = 99 },
	}
	for name, mutate := range cases {
		g := tinyGraph(4)
		mutate(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted broken graph", name)
		}
	}
	bad := &Graph{Name: "m", Layers: []*Layer{{Name: "fc", Type: MatMul, In: Shape{N: 1}, Out: Shape{N: 1}}}}
	if err := bad.Validate(); err == nil {
		t.Error("matmul without spec accepted")
	}
}

func TestShapeHelpers(t *testing.T) {
	s := Shape{N: 256, C: 64, H: 112, W: 112}
	if s.Elems() != 256*64*112*112 {
		t.Error("Elems wrong")
	}
	if s.Bytes() != s.Elems()*4 {
		t.Error("Bytes wrong")
	}
	if s.String() != "<256,64,112,112>" {
		t.Errorf("String = %q", s.String())
	}
	if (Shape{N: 8}).Elems() != 8 {
		t.Error("zero dims should default to 1")
	}
}

func TestLayerFlops(t *testing.T) {
	g := tinyGraph(2)
	conv := g.Layers[1]
	want := 2.0 * conv.Out.Elems() * 3 * 3 * 3
	if got := conv.Flops(); got != want {
		t.Errorf("conv flops = %g, want %g", got, want)
	}
	relu := g.Layers[3]
	if relu.Flops() != relu.Out.Elems() {
		t.Error("relu flops wrong")
	}
	if g.Layers[0].Flops() != 0 {
		t.Error("data layer should have no flops")
	}
	if g.TotalFlops() <= conv.Flops() {
		t.Error("TotalFlops should include elementwise")
	}
}

func TestBatchNormExpansion(t *testing.T) {
	e := NewExecutor(testPersonality()) // FusedBatchNorm=false, TF-style
	layers := e.expand(tinyGraph(2))
	var muls, adds, bns int
	for _, l := range layers {
		switch l.Type {
		case Mul:
			muls++
		case Add:
			adds++
		case BatchNorm:
			bns++
		}
	}
	if muls != 1 || adds != 1 || bns != 0 {
		t.Fatalf("TF expansion: mul=%d add=%d bn=%d", muls, adds, bns)
	}

	fused := testPersonality()
	fused.FusedBatchNorm = true
	layers = NewExecutor(fused).expand(tinyGraph(2))
	bns = 0
	for _, l := range layers {
		if l.Type == BatchNorm {
			bns++
		}
	}
	if bns != 1 {
		t.Fatalf("fused personality expanded BN anyway")
	}
}

func TestRunWithoutProfiling(t *testing.T) {
	e := NewExecutor(testPersonality())
	ctx, _ := newRig()
	res, err := e.Run(tinyGraph(4), ctx, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.End.Sub(res.Begin) <= 0 {
		t.Fatal("run took no time")
	}
	if res.Layers != nil {
		t.Fatal("layer records present without profiling")
	}
	if res.Model != "tiny" || res.BatchSize != 4 {
		t.Fatalf("result identity = %s/%d", res.Model, res.BatchSize)
	}
	if res.AllocTotal <= 0 {
		t.Fatal("no memory accounted")
	}
}

func TestRunRejectsInvalidGraph(t *testing.T) {
	e := NewExecutor(testPersonality())
	ctx, _ := newRig()
	g := tinyGraph(4)
	g.Name = ""
	if _, err := e.Run(g, ctx, RunOptions{}); err == nil {
		t.Fatal("invalid graph accepted")
	}
}

func TestLayerProfilingRecordsAndOverhead(t *testing.T) {
	p := testPersonality()
	e := NewExecutor(p)

	ctxA, _ := newRig()
	plain, err := e.Run(tinyGraph(4), ctxA, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctxB, _ := newRig()
	profiled, err := e.Run(tinyGraph(4), ctxB, RunOptions{LayerProfiling: true})
	if err != nil {
		t.Fatal(err)
	}

	// 6 executed layers: data, conv, mul, add, relu, softmax.
	if len(profiled.Layers) != 6 {
		t.Fatalf("layer records = %d, want 6", len(profiled.Layers))
	}
	// Profiling adds at least the per-layer overhead.
	minOverhead := time.Duration(len(profiled.Layers)) * p.LayerProfOverhead
	if got := profiled.End.Sub(profiled.Begin) - plain.End.Sub(plain.Begin); got < minOverhead {
		t.Fatalf("profiling overhead = %v, want >= %v", got, minOverhead)
	}
	// Records are contiguous, ordered, and named after the runtime
	// expansion.
	for i := 1; i < len(profiled.Layers); i++ {
		if profiled.Layers[i].Begin < profiled.Layers[i-1].End {
			t.Fatal("layer records overlap")
		}
	}
	if profiled.Layers[2].Name != "conv1/BatchNorm/mul" || profiled.Layers[2].Type != Mul {
		t.Fatalf("expanded layer = %+v", profiled.Layers[2])
	}
	// Conv layer allocates output + workspace.
	convRec := profiled.Layers[1]
	if convRec.AllocBytes <= int64(convRec.Shape.Bytes())-1 {
		t.Fatalf("conv alloc = %d, want >= output bytes %v", convRec.AllocBytes, convRec.Shape.Bytes())
	}
	if convRec.End.Sub(convRec.Begin) <= 0 {
		t.Fatal("conv layer latency not positive")
	}
}

func TestNoSerializeKeepsPipelining(t *testing.T) {
	e := NewExecutor(testPersonality())
	ctxA, _ := newRig()
	serialized, _ := e.Run(tinyGraph(64), ctxA, RunOptions{LayerProfiling: true})
	ctxB, _ := newRig()
	pipelined, _ := e.Run(tinyGraph(64), ctxB, RunOptions{LayerProfiling: true, NoSerialize: true})
	if pipelined.End.Sub(pipelined.Begin) >= serialized.End.Sub(serialized.Begin) {
		t.Fatalf("pipelined profiling (%v) should be faster than serialized (%v)", pipelined.End.Sub(pipelined.Begin), serialized.End.Sub(serialized.Begin))
	}
}

func TestWhereLayerCostsHostTime(t *testing.T) {
	p := testPersonality()
	e := NewExecutor(p)
	in := Shape{N: 1, C: 8, H: 10, W: 10}
	g := &Graph{Name: "od", Layers: []*Layer{
		{Name: "data", Type: Data, In: in, Out: in},
		{Name: "where", Type: Where, In: in, Out: in},
	}}
	ctx, _ := newRig()
	res, err := e.Run(g, ctx, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.End.Sub(res.Begin) < vclock.Duration(p.WhereCPU) {
		t.Fatalf("Where run latency %v < WhereCPU %v", res.End.Sub(res.Begin), p.WhereCPU)
	}
}

func TestLargerBatchTakesLonger(t *testing.T) {
	e := NewExecutor(testPersonality())
	ctxA, _ := newRig()
	small, _ := e.Run(tinyGraph(1), ctxA, RunOptions{})
	ctxB, _ := newRig()
	large, _ := e.Run(tinyGraph(64), ctxB, RunOptions{})
	if large.End.Sub(large.Begin) <= small.End.Sub(small.Begin) {
		t.Fatal("batch 64 should take longer than batch 1")
	}
	// But throughput (images/sec) must improve.
	tpsSmall := 1 / small.End.Sub(small.Begin).Seconds()
	tpsLarge := 64 / large.End.Sub(large.Begin).Seconds()
	if tpsLarge <= tpsSmall {
		t.Fatalf("throughput did not improve with batch: %v vs %v", tpsLarge, tpsSmall)
	}
}

func TestConvSpecHelpers(t *testing.T) {
	cs := ConvSpec{K: 64, R: 7, S: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}
	out := cs.OutShape(Shape{N: 2, C: 3, H: 224, W: 224})
	if out != (Shape{N: 2, C: 64, H: 112, W: 112}) {
		t.Fatalf("OutShape = %v", out)
	}
	if cs.WeightBytes(3) != 64*3*7*7*4 {
		t.Fatal("WeightBytes wrong")
	}
	if (ConvSpec{K: 1, R: 1, S: 1}).OutShape(Shape{N: 1, C: 1, H: 5, W: 5}) != (Shape{N: 1, C: 1, H: 5, W: 5}) {
		t.Fatal("default stride should be 1")
	}
	if (MatMulSpec{M: 2, K: 3, N: 4}).Flops() != 48 {
		t.Fatal("MatMulSpec.Flops wrong")
	}
}
