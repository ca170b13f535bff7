package workload

import (
	"testing"
	"time"

	"xsp/internal/core"
	"xsp/internal/framework"
	"xsp/internal/gpu"
	"xsp/internal/modelzoo"
	"xsp/internal/tensorflow"
)

func builderFor(t *testing.T, name string) GraphBuilder {
	t.Helper()
	m, ok := modelzoo.ByName(name)
	if !ok {
		t.Fatalf("zoo missing %s", name)
	}
	return m.Graph
}

func TestOptimalBatchRule(t *testing.T) {
	mk := func(batch int, tput float64) Point {
		return Point{Batch: batch, Throughput: tput, Latency: time.Duration(float64(batch) / tput * 1e9)}
	}
	// Plateau at 64: 64 -> 128 gains < 5%.
	points := []Point{mk(16, 500), mk(32, 600), mk(64, 700), mk(128, 720), mk(256, 730)}
	if got := OptimalBatch(points); got.Batch != 64 {
		t.Fatalf("optimal = %d, want 64", got.Batch)
	}
	// Monotone growth: largest batch wins.
	points = []Point{mk(64, 500), mk(128, 600), mk(256, 700)}
	if got := OptimalBatch(points); got.Batch != 256 {
		t.Fatalf("optimal = %d, want 256", got.Batch)
	}
	if OptimalBatch(nil).Batch != 0 {
		t.Fatal("empty sweep should yield zero point")
	}
}

func TestMaxThroughputAndOnlineLatency(t *testing.T) {
	points := []Point{
		{Batch: 1, Latency: 5 * time.Millisecond, Throughput: 200},
		{Batch: 8, Latency: 10 * time.Millisecond, Throughput: 800},
	}
	if MaxThroughput(points).Batch != 8 {
		t.Fatal("MaxThroughput wrong")
	}
	if OnlineLatency(points) != 5*time.Millisecond {
		t.Fatal("OnlineLatency wrong")
	}
	if OnlineLatency(points[1:]) != 0 {
		t.Fatal("missing batch 1 should yield 0")
	}
}

// Reproduces the paper's Fig 3 / Table VIII row for
// MLPerf_ResNet50_v1.5: throughput grows with batch size and the
// optimal-batch rule lands on 256.
func TestResNet50SweepShape(t *testing.T) {
	s := core.NewSession(tensorflow.New(), gpu.TeslaV100)
	points, err := Sweep(s, builderFor(t, "MLPerf_ResNet50_v1.5"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 9 {
		t.Fatalf("points = %d, want 9", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Throughput <= points[i-1].Throughput {
			t.Errorf("throughput fell from batch %d to %d: %.0f -> %.0f",
				points[i-1].Batch, points[i].Batch, points[i-1].Throughput, points[i].Throughput)
		}
	}
	opt := OptimalBatch(points)
	if opt.Batch != 256 {
		t.Fatalf("optimal batch = %d, paper reports 256", opt.Batch)
	}
	// Online latency within 2x of the paper's 6.22ms, peak throughput
	// within 2x of 930.7 inputs/s.
	online := OnlineLatency(points)
	if online < 3*time.Millisecond || online > 13*time.Millisecond {
		t.Errorf("online latency = %v, paper reports 6.22ms", online)
	}
	peak := MaxThroughput(points).Throughput
	if peak < 465 || peak > 1900 {
		t.Errorf("peak throughput = %.0f, paper reports 930.7", peak)
	}
}

// MobileNet saturates earlier than ResNet: its optimal batch in the paper
// is 64-128, not 256.
func TestMobileNetSaturatesEarlier(t *testing.T) {
	s := core.NewSession(tensorflow.New(), gpu.TeslaV100)
	points, err := Sweep(s, builderFor(t, "MobileNet_v1_0.5_224"), nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := OptimalBatch(points)
	if opt.Batch > 128 {
		t.Fatalf("MobileNet optimal batch = %d, paper reports 64", opt.Batch)
	}
}

func TestSweepSkipsOversizedBatches(t *testing.T) {
	s := core.NewSession(tensorflow.New(), gpu.TeslaV100)
	points, err := Sweep(s, builderFor(t, "DeepLabv3_MobileNet_v2"), []int{1, 2, 4, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3 (batch 64 exceeds MaxBatch)", len(points))
	}
}

func TestSweepRejectsAllFailedBatches(t *testing.T) {
	s := core.NewSession(tensorflow.New(), gpu.TeslaV100)
	bad := func(batch int) (*framework.Graph, error) {
		return nil, errAlways
	}
	if _, err := Sweep(s, bad, []int{1, 2}); err == nil {
		t.Fatal("expected error when every batch fails")
	}
}

var errAlways = errorString("nope")

type errorString string

func (e errorString) Error() string { return string(e) }
