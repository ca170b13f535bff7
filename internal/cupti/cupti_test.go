package cupti

import (
	"testing"
	"time"

	"xsp/internal/cuda"
	"xsp/internal/gpu"
	"xsp/internal/vclock"
)

func newSession(t *testing.T, cfg Config) (*CUPTI, *cuda.Context, *vclock.Clock) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clock := vclock.New(0)
	ctx := cuda.NewContext(gpu.NewDevice(gpu.TeslaV100), clock)
	ctx.Attach(c)
	return c, ctx, clock
}

var testKernel = gpu.Kernel{
	Name:  "volta_scudnn_128x64_relu_interior_nn_v1",
	Flops: 62.89e9, DramRead: 11.55e6, DramWrite: 283.05e6,
	ComputeEff: 0.8, MemEff: 0.8, Occupancy: 0.132,
}

func TestNewRejectsUnknownMetric(t *testing.T) {
	if _, err := New(Config{Metrics: []string{"bogus_metric"}}); err == nil {
		t.Fatal("expected error")
	}
}

func TestDisabledSessionCapturesNothingAndCostsNothing(t *testing.T) {
	c, ctx, clock := newSession(t, Config{})
	ctx.LaunchKernel(testKernel, ctx.Device().DefaultStream())
	if clock.Now() != vclock.Time(gpu.TeslaV100.LaunchCPU) {
		t.Fatalf("disabled CUPTI added overhead: %v", clock.Now())
	}
	if len(c.APIRecords()) != 0 || len(c.KernelRecords()) != 0 {
		t.Fatal("disabled session captured records")
	}
	if c.ReplayPasses() != 1 {
		t.Fatal("no metrics should mean one pass")
	}
}

func TestActivityCapture(t *testing.T) {
	c, ctx, clock := newSession(t, Config{Activity: true, Callback: true})
	st := ctx.Device().DefaultStream()
	ctx.LaunchKernel(testKernel, st)
	ctx.Memcpy("DtoH", 1<<20, st)

	if got := len(c.KernelRecords()); got != 1 {
		t.Fatalf("kernel records = %d", got)
	}
	if got := len(c.APIRecords()); got != 2 { // launch + memcpy
		t.Fatalf("api records = %d", got)
	}
	if got := len(c.MemcpyRecords()); got != 1 {
		t.Fatalf("memcpy records = %d", got)
	}
	// 1 launch with 80us overhead + launch cost + memcpy blocking.
	if clock.Now() < vclock.Time(DefaultLaunchOverhead) {
		t.Fatal("activity capture added no overhead")
	}
}

func TestProfilingOverheadMatchesPaperScale(t *testing.T) {
	// Fig 2: GPU-level profiling of the 3 kernels of the first Conv
	// layer adds ~0.24ms. 3 launches x 80us = 0.24ms.
	_, ctx, clock := newSession(t, Config{Activity: true})
	st := ctx.Device().DefaultStream()
	before := clock.Now()
	for i := 0; i < 3; i++ {
		ctx.LaunchKernel(testKernel, st)
	}
	hostCost := clock.Now().Sub(before)
	wantOverhead := 3 * DefaultLaunchOverhead
	base := 3 * gpu.TeslaV100.LaunchCPU
	if hostCost != base+wantOverhead {
		t.Fatalf("host cost = %v, want %v", hostCost, base+wantOverhead)
	}
}

func TestMetricReplayIsExpensive(t *testing.T) {
	c, err := New(Config{Activity: true, Metrics: StandardMetrics})
	if err != nil {
		t.Fatal(err)
	}
	// 2 (flops) + 50 + 50 (dram) + 1 (occupancy) = 103 passes: the
	// paper's ">100x slowdown" for memory metrics.
	if got := c.ReplayPasses(); got != 103 {
		t.Fatalf("ReplayPasses = %d, want 103", got)
	}
	// Without DRAM metrics, replay is cheap.
	c2, _ := New(Config{Activity: true, Metrics: []string{"flop_count_sp", "achieved_occupancy"}})
	if got := c2.ReplayPasses(); got != 3 {
		t.Fatalf("cheap ReplayPasses = %d, want 3", got)
	}
}

func TestReplayInflatesWallTime(t *testing.T) {
	c, ctx, _ := newSession(t, Config{Activity: true, Metrics: StandardMetrics})
	st := ctx.Device().DefaultStream()
	rec := ctx.LaunchKernel(testKernel, st)
	oneDur := rec.End.Sub(rec.Begin)
	if st.Tail().Sub(rec.Begin) != time.Duration(c.ReplayPasses())*oneDur {
		t.Fatalf("stream tail should include %d passes", c.ReplayPasses())
	}
}

func TestMetricsValues(t *testing.T) {
	c, ctx, _ := newSession(t, Config{Activity: true, Metrics: StandardMetrics})
	rec := ctx.LaunchKernel(testKernel, ctx.Device().DefaultStream())
	m := c.Metrics(rec)
	if m["flop_count_sp"] != testKernel.Flops {
		t.Errorf("flop_count_sp = %v", m["flop_count_sp"])
	}
	if m["dram_read_bytes"] != testKernel.DramRead || m["dram_write_bytes"] != testKernel.DramWrite {
		t.Error("dram metrics wrong")
	}
	if m["achieved_occupancy"] != testKernel.Occupancy {
		t.Error("occupancy wrong")
	}
	if _, ok := m["sm_efficiency"]; ok {
		t.Error("unconfigured metric reported")
	}
}

func TestExtendedMetrics(t *testing.T) {
	c, ctx, _ := newSession(t, Config{Activity: true, Metrics: []string{
		"flop_count_dp", "sm_efficiency", "warp_execution_eff", "shared_load_transac",
	}})
	rec := ctx.LaunchKernel(testKernel, ctx.Device().DefaultStream())
	m := c.Metrics(rec)
	if m["flop_count_dp"] != 0 {
		t.Error("dp flops should be 0")
	}
	if m["sm_efficiency"] <= 0 || m["sm_efficiency"] > 0.99 {
		t.Errorf("sm_efficiency = %v", m["sm_efficiency"])
	}
	if m["warp_execution_eff"] != 0.95 {
		t.Error("warp efficiency wrong")
	}
	if m["shared_load_transac"] != testKernel.DramRead/128 {
		t.Error("shared load transactions wrong")
	}
}

func TestRecordsSortedByBegin(t *testing.T) {
	c, ctx, _ := newSession(t, Config{Activity: true, Callback: true})
	st := ctx.Device().DefaultStream()
	for i := 0; i < 5; i++ {
		ctx.LaunchKernel(testKernel, st)
	}
	recs := c.KernelRecords()
	for i := 1; i < len(recs); i++ {
		if recs[i].Begin < recs[i-1].Begin {
			t.Fatal("kernel records not sorted")
		}
	}
}

func TestReset(t *testing.T) {
	c, ctx, _ := newSession(t, Config{Activity: true, Callback: true})
	ctx.LaunchKernel(testKernel, ctx.Device().DefaultStream())
	c.Reset()
	if len(c.APIRecords())+len(c.KernelRecords())+len(c.MemcpyRecords()) != 0 {
		t.Fatal("Reset left records")
	}
}

func TestUnboundedBufferNeverDrops(t *testing.T) {
	c, ctx, _ := newSession(t, Config{Activity: true})
	st := ctx.Device().DefaultStream()
	for i := 0; i < 100; i++ {
		ctx.LaunchKernel(testKernel, st)
	}
	if got := len(c.KernelRecords()); got != 100 {
		t.Fatalf("activity buffer kept %d of 100 records", got)
	}
}

func TestCatalogPassCounts(t *testing.T) {
	for name, m := range Catalog {
		if m.Passes < 1 {
			t.Errorf("metric %s has non-positive passes", name)
		}
		if m.Name != name {
			t.Errorf("metric %s name mismatch: %s", name, m.Name)
		}
	}
	for _, name := range StandardMetrics {
		if _, ok := Catalog[name]; !ok {
			t.Errorf("standard metric %s missing from catalog", name)
		}
	}
}
