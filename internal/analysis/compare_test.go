package analysis

import (
	"math"
	"testing"

	"xsp/internal/core"
	"xsp/internal/gpu"
	"xsp/internal/modelzoo"
	"xsp/internal/mxnet"
	"xsp/internal/tensorflow"
)

func runSetFor(t *testing.T, modelName string, mx bool, batch int) *RunSet {
	t.Helper()
	m, ok := modelzoo.ByName(modelName)
	if !ok {
		t.Fatalf("zoo missing %s", modelName)
	}
	exec := tensorflow.New()
	if mx {
		exec = mxnet.New()
	}
	s := core.NewSession(exec, gpu.TeslaV100)
	g, err := m.Graph(batch)
	if err != nil {
		t.Fatal(err)
	}
	mRun, err := s.Profile(g, core.Options{Levels: core.M})
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := m.Graph(batch)
	mlgRun, err := s.Profile(g2, core.Options{Levels: core.MLG, GPUMetrics: []string{"flop_count_sp", "dram_read_bytes", "dram_write_bytes", "achieved_occupancy"}})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRunSet(gpu.TeslaV100, mlgRun.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return rs.WithModelTraces(mRun.Trace)
}

// TF vs MXNet on MobileNet: MXNet's kernel latency is the lower, and the
// per-type latency gap is charged to the element-wise layers — the paper's
// Section IV-B conclusion, automated.
func TestCompareFrameworksOnMobileNet(t *testing.T) {
	tf := runSetFor(t, "MobileNet_v1_1.0_224", false, 128)
	mx := runSetFor(t, "MXNet_MobileNet_v1_1.0_224", true, 128)

	aggTF, aggMX := tf.A15ModelAggregate(0, 0), mx.A15ModelAggregate(0, 0)
	if ratio := aggMX.KernelLatencyMS / aggTF.KernelLatencyMS; ratio >= 1 {
		t.Fatalf("MXNet kernel latency ratio = %.2f, want < 1 (faster)", ratio)
	}
	if aggTF.Gflops <= 0 || aggMX.Gflops <= 0 {
		t.Fatal("flops missing from the model aggregate")
	}

	// The largest per-type delta is an element-wise/BN layer TF runs
	// through Eigen and MXNet fuses. TF executes Mul/Add where MXNet
	// executes BatchNorm, so both sides count.
	byType := map[string]float64{}
	for _, s := range tf.A6LatencyByType() {
		byType[s.Type] -= s.Value
	}
	for _, s := range mx.A6LatencyByType() {
		byType[s.Type] += s.Value
	}
	top, topAbs := "", -1.0
	for ty, d := range byType {
		if a := math.Abs(d); a > topAbs || (a == topAbs && ty < top) {
			top, topAbs = ty, a
		}
	}
	elementwise := map[string]bool{"Mul": true, "Add": true, "Relu6": true, "BatchNorm": true, "DepthwiseConv2dNative": true}
	if !elementwise[top] {
		t.Fatalf("largest delta = %q, want an element-wise/BN/depthwise type", top)
	}
}
