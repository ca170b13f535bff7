package modelzoo

import (
	"testing"

	"xsp/internal/framework"
)

func TestRegistryCounts(t *testing.T) {
	if got := len(Models()); got != 55 {
		t.Fatalf("TF models = %d, want 55 (Table VIII)", got)
	}
	if got := len(MXNetModels()); got != 10 {
		t.Fatalf("MXNet models = %d, want 10 (Table X)", got)
	}
	if got := len(ImageClassificationModels()); got != 37 {
		t.Fatalf("IC models = %d, want 37 (Table IX)", got)
	}
}

func TestIDsAreUniqueAndOrdered(t *testing.T) {
	prev := 0
	for _, m := range Models() {
		if m.ID != prev+1 {
			t.Fatalf("TF model IDs not consecutive: %d after %d (%s)", m.ID, prev, m.Name)
		}
		prev = m.ID
	}
}

// Every one of the 65 models must build a valid graph at batch 1 and at a
// mid-size batch.
func TestAllModelsBuildValidGraphs(t *testing.T) {
	all := append(Models(), MXNetModels()...)
	for _, m := range all {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			for _, batch := range []int{1, 4} {
				g, err := m.Graph(batch)
				if err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				if g.BatchSize() != batch {
					t.Fatalf("batch %d: graph batch = %d", batch, g.BatchSize())
				}
				if len(g.Layers) < 5 {
					t.Fatalf("batch %d: only %d layers", batch, len(g.Layers))
				}
			}
		})
	}
}

func TestGraphRejectsBadBatch(t *testing.T) {
	m, _ := ByName("MLPerf_ResNet50_v1.5")
	if _, err := m.Graph(0); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, err := m.Graph(512); err == nil {
		t.Fatal("batch beyond MaxBatch accepted")
	}
	dl, _ := ByName("DeepLabv3_Xception_65")
	if _, err := dl.Graph(64); err == nil {
		t.Fatal("DeepLab should cap batch at 8")
	}
}

func TestByNameAndByID(t *testing.T) {
	if _, ok := ByName("MLPerf_ResNet50_v1.5"); !ok {
		t.Fatal("ByName failed for TF model")
	}
	if _, ok := ByName("MXNet_ResNet_v1_50"); !ok {
		t.Fatal("ByName failed for MXNet model")
	}
	if _, ok := ByName("NotAModel"); ok {
		t.Fatal("ByName invented a model")
	}
	if m, ok := ByID(7); !ok || m.Name != "MLPerf_ResNet50_v1.5" {
		t.Fatalf("ByID(7) = %v, %v", m.Name, ok)
	}
	if _, ok := ByID(99); ok {
		t.Fatal("ByID invented a model")
	}
}

// MLPerf_ResNet50_v1.5's structure against the paper: ~234 executed TF
// layers (Table II caption), 53 Conv2D layers, ~8.2 Gflops/image.
func TestResNet50Structure(t *testing.T) {
	m, _ := ByName("MLPerf_ResNet50_v1.5")
	g, err := m.Graph(256)
	if err != nil {
		t.Fatal(err)
	}
	// The static graph carries BatchNorm layers; TF expands each into
	// Mul+Add at runtime, so executed = static + #BN.
	counts := countByType(g)
	executed := len(g.Layers) + counts[framework.BatchNorm]
	if executed < 210 || executed > 260 {
		t.Errorf("executed TF layers = %d, want ~234", executed)
	}
	if counts[framework.Conv2D] != 53 {
		t.Errorf("Conv2D layers = %d, want 53", counts[framework.Conv2D])
	}
	if counts[framework.AddN] != 16 {
		t.Errorf("AddN layers = %d, want 16 (residual merges)", counts[framework.AddN])
	}
	flopsPerImage := g.TotalFlops() / 256
	if flopsPerImage < 7e9 || flopsPerImage > 9.5e9 {
		t.Errorf("flops/image = %.3g, want ~8.2e9", flopsPerImage)
	}
	// First conv layer produces the paper's <256,64,112,112> shape.
	var firstConv *framework.Layer
	for _, l := range g.Layers {
		if l.Type == framework.Conv2D {
			firstConv = l
			break
		}
	}
	if firstConv.Out != (framework.Shape{N: 256, C: 64, H: 112, W: 112}) {
		t.Errorf("first conv out = %v", firstConv.Out)
	}
}

func TestResNetDepthsScale(t *testing.T) {
	flops := func(name string) float64 {
		m, _ := ByName(name)
		g, err := m.Graph(1)
		if err != nil {
			t.Fatal(err)
		}
		return g.TotalFlops()
	}
	f50, f101, f152 := flops("ResNet_v1_50"), flops("ResNet_v1_101"), flops("ResNet_v1_152")
	if !(f50 < f101 && f101 < f152) {
		t.Fatalf("ResNet flops not increasing with depth: %g %g %g", f50, f101, f152)
	}
	// ResNet101 is roughly 1.9x ResNet50 (15.7 vs 8.2 GFlops).
	if r := f101 / f50; r < 1.6 || r > 2.3 {
		t.Errorf("101/50 flop ratio = %.2f, want ~1.9", r)
	}
}

// MobileNet sweeps: flops scale with the square of the width multiplier
// and of the resolution.
func TestMobileNetSweepScaling(t *testing.T) {
	flops := func(name string) float64 {
		m, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		g, err := m.Graph(1)
		if err != nil {
			t.Fatal(err)
		}
		return g.TotalFlops()
	}
	full := flops("MobileNet_v1_1.0_224")
	half := flops("MobileNet_v1_0.5_224")
	low := flops("MobileNet_v1_1.0_128")
	if r := full / half; r < 2.5 || r > 5 {
		t.Errorf("width 1.0/0.5 flop ratio = %.2f, want ~3.5", r)
	}
	if r := full / low; r < 2.2 || r > 4 {
		t.Errorf("res 224/128 flop ratio = %.2f, want ~3.1", r)
	}
	// MobileNet 1.0 is ~0.57 GMACs = 1.1 GFlops.
	if full < 0.8e9 || full > 1.8e9 {
		t.Errorf("MobileNet flops = %.3g, want ~1.1e9", full)
	}
}

// Detection models must be dominated by Where/postprocessing layers, not
// convolutions (the paper's Section IV-A finding 2).
func TestDetectionModelsHaveWhereLayers(t *testing.T) {
	for _, name := range []string{
		"MLPerf_SSD_MobileNet_v1_300x300", "SSD_MobileNet_v2", "Faster_RCNN_ResNet50",
	} {
		m, _ := ByName(name)
		g, err := m.Graph(1)
		if err != nil {
			t.Fatal(err)
		}
		if got := countByType(g)[framework.Where]; got < 100 {
			t.Errorf("%s has %d Where layers, want >= 100", name, got)
		}
	}
}

// VGG16's flop count is ~15.5 GMACs = 31 Gflops, far above ResNet50
// despite similar accuracy; its graph size entry (528 MB) is the zoo's
// largest but one.
func TestVGG16Flops(t *testing.T) {
	m, _ := ByName("VGG16")
	g, err := m.Graph(1)
	if err != nil {
		t.Fatal(err)
	}
	if f := g.TotalFlops(); f < 25e9 || f > 38e9 {
		t.Errorf("VGG16 flops = %.3g, want ~31e9", f)
	}
	v19, _ := ByName("VGG19")
	g19, _ := v19.Graph(1)
	if g19.TotalFlops() <= g.TotalFlops() {
		t.Error("VGG19 should exceed VGG16 flops")
	}
}

// Inception family ordering: v1 < v3 < v4 <= Inception-ResNet v2.
func TestInceptionFamilyOrdering(t *testing.T) {
	flops := func(name string) float64 {
		m, _ := ByName(name)
		g, err := m.Graph(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return g.TotalFlops()
	}
	v1, v3, v4, ir2 := flops("Inception_v1"), flops("Inception_v3"), flops("Inception_v4"), flops("Inception_ResNet_v2")
	if !(v1 < v3 && v3 < v4 && v4 <= ir2*1.2) {
		t.Fatalf("inception flops ordering broken: v1=%.3g v3=%.3g v4=%.3g ir2=%.3g", v1, v3, v4, ir2)
	}
}

// The paper's metadata must be present for every TF model (used by the
// Table VIII bench).
func TestPaperMetadataComplete(t *testing.T) {
	for _, m := range Models() {
		if m.Paper.OnlineLatencyMS <= 0 || m.Paper.MaxThroughput <= 0 || m.Paper.OptimalBatch < 1 {
			t.Errorf("%s: incomplete paper metadata %+v", m.Name, m.Paper)
		}
		if m.GraphSizeMB <= 0 {
			t.Errorf("%s: missing graph size", m.Name)
		}
		if m.Task == ImageClassification && m.Accuracy <= 0 {
			t.Errorf("%s: missing accuracy", m.Name)
		}
	}
}

// MXNet models must pair with TF models by paper ID.
func TestMXNetModelsPairWithTF(t *testing.T) {
	for _, m := range MXNetModels() {
		tf, ok := ByID(m.ID)
		if !ok {
			t.Errorf("MXNet model %s has no TF counterpart id %d", m.Name, m.ID)
			continue
		}
		mg, err := m.Graph(1)
		if err != nil {
			t.Fatal(err)
		}
		tg, err := tf.Graph(1)
		if err != nil {
			t.Fatal(err)
		}
		// Comparable models: same algorithmic flops.
		if r := mg.TotalFlops() / tg.TotalFlops(); r < 0.95 || r > 1.05 {
			t.Errorf("%s flops differ from TF counterpart by %.2fx", m.Name, r)
		}
	}
}

// countByType returns how many layers of each type the graph contains.
func countByType(g *framework.Graph) map[framework.LayerType]int {
	out := make(map[framework.LayerType]int)
	for _, l := range g.Layers {
		out[l.Type]++
	}
	return out
}
