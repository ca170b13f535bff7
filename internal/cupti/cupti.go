// Package cupti simulates NVIDIA's CUDA Profiling Tools Interface, the
// library nvprof and Nsight are built on and the source of XSP's GPU
// kernel-level profile. It exposes the same three capture surfaces the
// paper uses: the callback API (CUDA API calls such as cudaLaunchKernel),
// the activity API (kernel executions and memory copies), and the metric
// API (hardware counters such as flop_count_sp and dram_read_bytes).
//
// Profiling overhead is part of the simulation: activity/callback capture
// costs host time per launch, and metric collection replays kernels because
// the GPU has a limited number of hardware performance counters — GPU
// memory metrics are especially expensive and can slow execution by over
// 100x (Section III-C of the paper).
package cupti

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"xsp/internal/cuda"
)

// Metric describes one hardware counter: its name and how many replay
// passes collecting it costs.
type Metric struct {
	Name        string
	Passes      int
	Description string
}

// Catalog lists the supported GPU metrics. The four the paper focuses on
// are flop_count_sp, dram_read_bytes, dram_write_bytes, and
// achieved_occupancy. Pass counts encode relative collection cost: DRAM
// metrics need many replay passes (they multiplex scarce memory-system
// counters), which is what makes memory-metric profiling >100x slower.
var Catalog = map[string]Metric{
	"flop_count_sp":       {Name: "flop_count_sp", Passes: 2, Description: "single-precision flops executed"},
	"flop_count_dp":       {Name: "flop_count_dp", Passes: 2, Description: "double-precision flops executed"},
	"achieved_occupancy":  {Name: "achieved_occupancy", Passes: 1, Description: "avg active warps / max warps per SM"},
	"dram_read_bytes":     {Name: "dram_read_bytes", Passes: 50, Description: "bytes read from DRAM to L2"},
	"dram_write_bytes":    {Name: "dram_write_bytes", Passes: 50, Description: "bytes written from L2 to DRAM"},
	"sm_efficiency":       {Name: "sm_efficiency", Passes: 1, Description: "fraction of time SMs had work"},
	"warp_execution_eff":  {Name: "warp_execution_eff", Passes: 2, Description: "avg active threads per executed warp"},
	"shared_load_transac": {Name: "shared_load_transac", Passes: 4, Description: "shared memory load transactions"},
}

// StandardMetrics is the metric set the paper's analyses consume.
var StandardMetrics = []string{
	"flop_count_sp", "dram_read_bytes", "dram_write_bytes", "achieved_occupancy",
}

// Config selects which capture surfaces are enabled.
type Config struct {
	Callback bool     // capture CUDA API calls (launch records)
	Activity bool     // capture kernel/memcpy execution records
	Metrics  []string // hardware counters to collect (forces kernel replay)

	// LaunchOverhead is the host cost CUPTI adds per kernel launch when
	// callback or activity capture is on. The default (80us) reproduces
	// the paper's Fig 2: profiling the first Conv layer's 3 child
	// kernels costs 0.24ms.
	LaunchOverhead time.Duration
}

// DefaultLaunchOverhead is the per-launch host cost of activity capture.
const DefaultLaunchOverhead = 80 * time.Microsecond

// CUPTI is a simulated profiling session. Attach it to a cuda.Context to
// start capturing. It is safe for concurrent record delivery.
type CUPTI struct {
	cfg    Config
	passes int

	mu      sync.Mutex
	apis    []cuda.APIRecord
	kernels []cuda.KernelRecord
	memcpys []cuda.MemcpyRecord
}

// New validates cfg and returns a profiling session. Unknown metric names
// are rejected, like CUPTI's own metric enumeration would.
func New(cfg Config) (*CUPTI, error) {
	if cfg.LaunchOverhead == 0 {
		cfg.LaunchOverhead = DefaultLaunchOverhead
	}
	passes := 1
	if len(cfg.Metrics) > 0 {
		passes = 0
		for _, m := range cfg.Metrics {
			met, ok := Catalog[m]
			if !ok {
				return nil, fmt.Errorf("cupti: unknown metric %q", m)
			}
			passes += met.Passes
		}
		if passes < 1 {
			passes = 1
		}
	}
	return &CUPTI{cfg: cfg, passes: passes}, nil
}

// LaunchCPUOverhead implements cuda.ProfilerHook.
func (c *CUPTI) LaunchCPUOverhead() time.Duration {
	if c.cfg.Callback || c.cfg.Activity {
		return c.cfg.LaunchOverhead
	}
	return 0
}

// ReplayPasses implements cuda.ProfilerHook: the total number of times each
// kernel must run to collect the configured metrics.
func (c *CUPTI) ReplayPasses() int { return c.passes }

// RecordAPI implements cuda.ProfilerHook.
func (c *CUPTI) RecordAPI(a cuda.APIRecord) {
	if !c.cfg.Callback {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.apis = append(c.apis, a)
}

// RecordKernel implements cuda.ProfilerHook.
func (c *CUPTI) RecordKernel(k cuda.KernelRecord) {
	if !c.cfg.Activity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kernels = append(c.kernels, k)
}

// RecordMemcpy implements cuda.ProfilerHook.
func (c *CUPTI) RecordMemcpy(m cuda.MemcpyRecord) {
	if !c.cfg.Activity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memcpys = append(c.memcpys, m)
}

// APIRecords returns the captured CUDA API calls in begin order.
func (c *CUPTI) APIRecords() []cuda.APIRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]cuda.APIRecord(nil), c.apis...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Begin < out[j].Begin })
	return out
}

// KernelRecords returns the captured kernel executions in begin order.
func (c *CUPTI) KernelRecords() []cuda.KernelRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]cuda.KernelRecord(nil), c.kernels...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Begin < out[j].Begin })
	return out
}

// MemcpyRecords returns the captured copies in begin order.
func (c *CUPTI) MemcpyRecords() []cuda.MemcpyRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]cuda.MemcpyRecord(nil), c.memcpys...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Begin < out[j].Begin })
	return out
}

// Metrics returns the values of the configured metrics for one captured
// kernel execution. Metrics not configured for this session are absent, as
// CUPTI only collects what the profiling session requested.
func (c *CUPTI) Metrics(k cuda.KernelRecord) map[string]float64 {
	out := make(map[string]float64, len(c.cfg.Metrics))
	for _, m := range c.cfg.Metrics {
		switch m {
		case "flop_count_sp":
			out[m] = k.Kernel.Flops
		case "flop_count_dp":
			out[m] = 0 // the simulated workloads are single-precision
		case "dram_read_bytes":
			out[m] = k.Kernel.DramRead
		case "dram_write_bytes":
			out[m] = k.Kernel.DramWrite
		case "achieved_occupancy":
			out[m] = k.Kernel.Occupancy
		case "sm_efficiency":
			out[m] = k.Kernel.Occupancy * 1.6
			if out[m] > 0.99 {
				out[m] = 0.99
			}
		case "warp_execution_eff":
			out[m] = 0.95
		case "shared_load_transac":
			out[m] = k.Kernel.DramRead / 128
		}
	}
	return out
}

// Reset discards captured records so the session can be reused — the
// equivalent of requesting fresh activity buffers.
func (c *CUPTI) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.apis, c.kernels, c.memcpys = nil, nil, nil
}
