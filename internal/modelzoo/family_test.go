package modelzoo

import (
	"testing"

	"xsp/internal/framework"
)

// graphFor builds a model at batch 1 or fails the test.
func graphFor(t *testing.T, name string, batch int) *framework.Graph {
	t.Helper()
	m, ok := ByName(name)
	if !ok {
		t.Fatalf("zoo missing %s", name)
	}
	g, err := m.Graph(batch)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// weightBytes is the framework's parameter accounting (frozen-graph size,
// roughly, which Table VIII publishes per model).
func weightBytes(g *framework.Graph) float64 { return g.ParamBytes() }

// VGG16 has ~138M parameters (552 MB FP32) — Table VIII's graph size is
// 528 MB. The FC layers hold ~90% of them.
func TestVGG16Parameters(t *testing.T) {
	g := graphFor(t, "VGG16", 1)
	mb := weightBytes(g) / 1e6
	if mb < 480 || mb > 620 {
		t.Fatalf("VGG16 params = %.0f MB, want ~552", mb)
	}
	var fc float64
	for _, l := range g.Layers {
		if l.Type == framework.MatMul {
			fc += 4 * float64(l.Dense.K) * float64(l.Dense.N)
		}
	}
	if fc/weightBytes(g) < 0.8 {
		t.Fatalf("FC share = %.2f, want ~0.9", fc/weightBytes(g))
	}
	// 13 convolutions + 3 dense layers.
	counts := countByType(g)
	if counts[framework.Conv2D] != 13 || counts[framework.MatMul] != 3 {
		t.Fatalf("conv/fc = %d/%d, want 13/3", counts[framework.Conv2D], counts[framework.MatMul])
	}
}

// ResNet50 has ~25.5M parameters (102 MB FP32); Table VIII lists 103 MB.
func TestResNet50Parameters(t *testing.T) {
	g := graphFor(t, "MLPerf_ResNet50_v1.5", 1)
	mb := weightBytes(g) / 1e6
	if mb < 90 || mb > 115 {
		t.Fatalf("ResNet50 params = %.0f MB, want ~102", mb)
	}
}

// MobileNet 1.0_224 has ~4.2M parameters (17 MB FP32, Table VIII: 16-17MB);
// the width sweep scales roughly quadratically.
func TestMobileNetParameters(t *testing.T) {
	full := weightBytes(graphFor(t, "MobileNet_v1_1.0_224", 1)) / 1e6
	if full < 13 || full > 22 {
		t.Fatalf("MobileNet 1.0 params = %.1f MB, want ~17", full)
	}
	quarter := weightBytes(graphFor(t, "MobileNet_v1_0.25_224", 1)) / 1e6
	if r := full / quarter; r < 7 || r > 16 {
		t.Fatalf("1.0/0.25 param ratio = %.1f, want ~11", r)
	}
	// Resolution does not change parameter count.
	low := weightBytes(graphFor(t, "MobileNet_v1_1.0_128", 1)) / 1e6
	if low != full {
		t.Fatalf("resolution changed parameters: %.2f vs %.2f", low, full)
	}
}

// AlexNet (Caffe) has ~61M parameters (244 MB; Table VIII: 233 MB), with
// grouped convolutions at conv2/4/5.
func TestAlexNetStructure(t *testing.T) {
	g := graphFor(t, "BVLC_AlexNet_Caffe", 1)
	counts := countByType(g)
	if counts[framework.Conv2D] != 5 || counts[framework.MatMul] != 3 {
		t.Fatalf("conv/fc = %d/%d, want 5/3", counts[framework.Conv2D], counts[framework.MatMul])
	}
	mb := weightBytes(g) / 1e6
	if mb < 180 || mb > 280 {
		t.Fatalf("AlexNet params = %.0f MB, want ~240", mb)
	}
}

// DenseNet-121: 58 dense-layer concatenations plus 3 transitions; channels
// reach 1024 before the classifier.
func TestDenseNet121Structure(t *testing.T) {
	g := graphFor(t, "AI_Matrix_DenseNet121", 1)
	counts := countByType(g)
	if counts[framework.Concat] != 58 {
		t.Fatalf("concats = %d, want 58", counts[framework.Concat])
	}
	// 1 stem + 58*2 dense + 3 transition convs = 120 (the "121" counts
	// the classifier too).
	if counts[framework.Conv2D] != 120 {
		t.Fatalf("convs = %d, want 120", counts[framework.Conv2D])
	}
	var fc *framework.Layer
	for _, l := range g.Layers {
		if l.Type == framework.MatMul {
			fc = l
		}
	}
	if fc == nil || fc.Dense.K != 1024 {
		t.Fatalf("classifier input = %v, want 1024 channels", fc)
	}
}

// GoogLeNet: 9 inception modules = 57 convolutions total (2 stem + 55
// module convs with the 1x1-reduce structure), ~7M parameters.
func TestGoogLeNetStructure(t *testing.T) {
	g := graphFor(t, "Inception_v1", 1)
	counts := countByType(g)
	// stem 3 convs + 9 modules x 6 convs = 57.
	if counts[framework.Conv2D] != 57 {
		t.Fatalf("convs = %d, want 57", counts[framework.Conv2D])
	}
	if counts[framework.Concat] != 9 {
		t.Fatalf("concats = %d, want 9 (one per module)", counts[framework.Concat])
	}
	mb := weightBytes(g) / 1e6
	if mb < 20 || mb > 45 {
		t.Fatalf("GoogLeNet params = %.0f MB, want ~28", mb)
	}
}

// Inception v3 runs at 299x299 and lands near its published 5.7 GMACs
// (11.4 Gflops).
func TestInceptionV3Workload(t *testing.T) {
	g := graphFor(t, "Inception_v3", 1)
	if g.Layers[0].In.H != 299 {
		t.Fatalf("input = %d, want 299", g.Layers[0].In.H)
	}
	f := g.TotalFlops()
	if f < 8e9 || f > 16e9 {
		t.Fatalf("flops = %.3g, want ~11.4e9", f)
	}
}

// SRGAN keeps full spatial resolution throughout: no layer shrinks below
// the input, and the output is 4x upscaled RGB.
func TestSRGANStructure(t *testing.T) {
	g := graphFor(t, "SRGAN", 1)
	in := g.Layers[0].In
	for _, l := range g.Layers {
		if l.Out.H < in.H && l.Type == framework.Conv2D {
			t.Fatalf("conv %s shrank spatial dims to %d", l.Name, l.Out.H)
		}
	}
	last := g.Layers[len(g.Layers)-1]
	if last.Out.C != 3 || last.Out.H != 4*in.H {
		t.Fatalf("output = %v, want 3x%dx%d", last.Out, 4*in.H, 4*in.W)
	}
	if got := countByType(g)[framework.AddN]; got != 17 { // 16 blocks + trunk skip
		t.Fatalf("residual adds = %d, want 17", got)
	}
}

// DeepLab's output is a full-resolution segmentation map: 21 classes at
// the 513x513 input size.
func TestDeepLabOutputShape(t *testing.T) {
	for _, name := range []string{"DeepLabv3_Xception_65", "DeepLabv3_MobileNet_v2"} {
		g := graphFor(t, name, 1)
		last := g.Layers[len(g.Layers)-1]
		if last.Out.C != 21 || last.Out.H != 513 {
			t.Fatalf("%s output = %v, want <1,21,513,513>", name, last.Out)
		}
	}
}

// The SSD detectors share the structure: backbone, extra feature convs,
// box predictors, then a Where-heavy postprocessing tail whose output is
// the box list.
func TestSSDStructure(t *testing.T) {
	g := graphFor(t, "MLPerf_SSD_MobileNet_v1_300x300", 1)
	counts := countByType(g)
	if counts[framework.Where] != 145 {
		t.Fatalf("Where ops = %d, want 145", counts[framework.Where])
	}
	if counts[framework.DepthwiseConv] != 13 {
		t.Fatalf("depthwise convs = %d, want 13 (MobileNet backbone)", counts[framework.DepthwiseConv])
	}
	last := g.Layers[len(g.Layers)-1]
	if last.Out.C != 4 {
		t.Fatalf("output = %v, want box coordinates", last.Out)
	}
}

// Depthwise separable models: depthwise and pointwise convolutions
// alternate one-to-one in MobileNet v1.
func TestMobileNetAlternation(t *testing.T) {
	g := graphFor(t, "MobileNet_v1_1.0_224", 1)
	var seq []framework.LayerType
	for _, l := range g.Layers {
		if l.Type == framework.Conv2D || l.Type == framework.DepthwiseConv {
			seq = append(seq, l.Type)
		}
	}
	// stem conv, then 13x (depthwise, pointwise).
	if len(seq) != 27 {
		t.Fatalf("conv sequence = %d, want 27", len(seq))
	}
	for i := 1; i < len(seq); i += 2 {
		if seq[i] != framework.DepthwiseConv {
			t.Fatalf("position %d = %v, want depthwise", i, seq[i])
		}
	}
}

// ResNet v2 (pre-activation) has no post-merge ReLU: its AddN merges are
// never immediately followed by Relu, unlike v1.
func TestResNetV1V2ActivationPlacement(t *testing.T) {
	v1 := graphFor(t, "ResNet_v1_50", 1)
	v2 := graphFor(t, "ResNet_v2_50", 1)
	followers := func(g *framework.Graph) int {
		n := 0
		for i, l := range g.Layers {
			if l.Type == framework.AddN && i+1 < len(g.Layers) && g.Layers[i+1].Type == framework.Relu {
				n++
			}
		}
		return n
	}
	if followers(v1) != 16 {
		t.Fatalf("v1 post-merge relus = %d, want 16", followers(v1))
	}
	if followers(v2) != 0 {
		t.Fatalf("v2 post-merge relus = %d, want 0 (pre-activation)", followers(v2))
	}
}
