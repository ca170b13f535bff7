package analysis

import (
	"testing"

	"xsp/internal/gpu"
	"xsp/internal/workload"
)

// TestTopKClamped pins the negative-k fix across every Top* helper: any
// k < 0 yields an empty slice instead of a slice-bounds panic, and k past
// the row count yields every row.
func TestTopKClamped(t *testing.T) {
	tr := workload.SyntheticTrace(workload.SyntheticSpec{
		Spans: 600, LayerTypes: onlineLayerTypes, KernelMetrics: true,
		MemcpysPerLayer: 2, Prelinked: true, Seed: 21,
	})
	rs, err := NewRunSet(gpu.TeslaV100, tr)
	if err != nil {
		t.Fatal(err)
	}
	helpers := []struct {
		name string
		call func(k int) int
	}{
		{"TopKernelsByLatency", func(k int) int { return len(rs.TopKernelsByLatency(k)) }},
		{"TopLayersByLatency", func(k int) int { return len(rs.TopLayersByLatency(k)) }},
		{"TopLayersByKernelLatency", func(k int) int { return len(rs.TopLayersByKernelLatency(k)) }},
	}
	for _, h := range helpers {
		for _, k := range []int{-1, -1 << 40} {
			if got := h.call(k); got != 0 {
				t.Errorf("%s(%d) returned %d rows, want 0", h.name, k, got)
			}
		}
		if got := h.call(0); got != 0 {
			t.Errorf("%s(0) returned %d rows, want 0", h.name, got)
		}
		full := h.call(1 << 40)
		if full == 0 {
			t.Errorf("%s(huge) returned no rows from a populated trace", h.name)
		}
		if one := h.call(1); one != 1 {
			t.Errorf("%s(1) returned %d rows, want 1", h.name, one)
		}
	}
}
