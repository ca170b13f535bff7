package analysis

import (
	"testing"

	"xsp/internal/gpu"
)

func TestMemcpyTable(t *testing.T) {
	snap := gapEngine(t, 256, false).MemcpySnapshot() // M/L/G profile of ResNet50 at 256
	if len(snap.Rows) != 2 {
		t.Fatalf("directions = %d, want HtoD and DtoH", len(snap.Rows))
	}
	byDir := map[string]MemcpyRow{}
	for _, r := range snap.Rows {
		byDir[r.Direction] = r
	}
	h2d := byDir["HtoD"]
	// The input tensor is 256x3x224x224 FP32 = 154 MB.
	if h2d.Count != 1 || h2d.MB < 150 || h2d.MB > 160 {
		t.Fatalf("HtoD = %+v, want one ~154MB copy", h2d)
	}
	// PCIe bandwidth: ~12 GB/s.
	if h2d.BandwidthGBps < 10 || h2d.BandwidthGBps > 13 {
		t.Fatalf("HtoD bandwidth = %.1f GB/s, want ~12", h2d.BandwidthGBps)
	}
	d2h := byDir["DtoH"]
	// The output logits are 256x1000 FP32 = 1 MB.
	if d2h.MB < 0.9 || d2h.MB > 1.2 {
		t.Fatalf("DtoH = %+v, want ~1MB", d2h)
	}
	if snap.TotalMS <= 0 || snap.TotalMS != h2d.LatencyMS+d2h.LatencyMS {
		t.Fatalf("total copy latency %v, directions %v + %v", snap.TotalMS, h2d.LatencyMS, d2h.LatencyMS)
	}
}

// TestMemcpyTableEmptyEngine: before any span, the view has no rows — an
// empty list on the wire, not null.
func TestMemcpyTableEmptyEngine(t *testing.T) {
	snap := NewOnline(OnlineOptions{Spec: gpu.TeslaV100}).MemcpySnapshot()
	if snap.Rows == nil || len(snap.Rows) != 0 || snap.TotalMS != 0 || !snap.OverlapExact {
		t.Fatalf("empty engine's memcpy view = %+v", snap)
	}
}
