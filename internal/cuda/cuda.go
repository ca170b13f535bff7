// Package cuda simulates the CUDA runtime layer of the XSP stack: streams,
// asynchronous kernel launches tied together by correlation ids, blocking
// and non-blocking synchronization, and host<->device memory copies.
//
// The asynchrony is the point: GPU kernels are launched asynchronously by
// ML frameworks, which is why XSP must capture two spans per kernel (launch
// and execution) and correlate them by correlation_id, and why the paper
// uses CUDA_LAUNCH_BLOCKING=1 to serialize parallel events when parent
// reconstruction is ambiguous. The simulator reproduces both behaviours.
package cuda

import (
	"time"

	"xsp/internal/gpu"
	"xsp/internal/vclock"
)

// APIRecord describes one CUDA API call observed on the host, e.g. a
// cudaLaunchKernel invocation. ProfilerHooks receive these when callback
// capture is enabled.
type APIRecord struct {
	Name          string // "cudaLaunchKernel", "cudaMemcpy", ...
	CorrelationID uint64
	Begin, End    vclock.Time // host-side window
	Stream        int
}

// KernelRecord describes one kernel execution on the device.
type KernelRecord struct {
	Kernel        gpu.Kernel
	CorrelationID uint64
	Begin, End    vclock.Time // device-side window
	Stream        int
}

// MemcpyRecord describes one host<->device copy.
type MemcpyRecord struct {
	Direction     string // "HtoD" or "DtoH"
	Bytes         int64
	CorrelationID uint64
	Begin, End    vclock.Time
	Stream        int
}

// ProfilerHook is the interception surface the CUPTI simulator attaches to.
// A hook both observes records and injects the profiling overhead the paper
// measures: per-launch host overhead and kernel replay passes for metric
// collection.
type ProfilerHook interface {
	// LaunchCPUOverhead is extra host time consumed per kernel launch by
	// the profiler (activity/callback buffer management).
	LaunchCPUOverhead() time.Duration
	// ReplayPasses is how many times each kernel must execute so the
	// profiler can collect its configured hardware counters; 1 means no
	// replay. The limited number of GPU performance counters is what
	// forces replay (Section III-C).
	ReplayPasses() int
	RecordAPI(APIRecord)
	RecordKernel(KernelRecord)
	RecordMemcpy(MemcpyRecord)
}

// Context is a simulated CUDA context bound to one device and one host
// thread (the clock). The zero value is not usable; create with NewContext.
type Context struct {
	dev   *gpu.Device
	clock *vclock.Clock
	hooks []ProfilerHook

	// LaunchBlocking mirrors CUDA_LAUNCH_BLOCKING=1: every kernel launch
	// blocks the host until the kernel completes, serializing the
	// timeline (used by XSP to disambiguate parallel events).
	LaunchBlocking bool

	nextCorrelation uint64
}

// NewContext creates a context on dev driven by clock.
func NewContext(dev *gpu.Device, clock *vclock.Clock) *Context {
	return &Context{dev: dev, clock: clock}
}

// Device returns the context's device.
func (c *Context) Device() *gpu.Device { return c.dev }

// Clock returns the host clock driving this context.
func (c *Context) Clock() *vclock.Clock { return c.clock }

// Attach registers a profiler hook (CUPTI subscription).
func (c *Context) Attach(h ProfilerHook) { c.hooks = append(c.hooks, h) }

func (c *Context) correlation() uint64 {
	c.nextCorrelation++
	return c.nextCorrelation
}

func (c *Context) launchOverhead() time.Duration {
	var d time.Duration
	for _, h := range c.hooks {
		d += h.LaunchCPUOverhead()
	}
	return d
}

func (c *Context) replayPasses() int {
	passes := 1
	for _, h := range c.hooks {
		if p := h.ReplayPasses(); p > passes {
			passes = p
		}
	}
	return passes
}

// LaunchKernel asynchronously launches k on stream st. The host pays the
// launch API cost (plus any profiler overhead); the kernel is enqueued on
// the stream, executing when the stream reaches it. When metric collection
// forces replay, the extra passes are enqueued after the measured one, so
// they inflate wall time without distorting the kernel's reported window —
// which is how CUPTI's kernel replay behaves. Returns the correlation id
// and the kernel's execution window.
func (c *Context) LaunchKernel(k gpu.Kernel, st *gpu.Stream) KernelRecord {
	corr := c.correlation()

	apiBegin := c.clock.Now()
	c.clock.Advance(c.dev.LaunchCPU + c.launchOverhead())
	apiEnd := c.clock.Now()

	execBegin, execEnd := c.dev.Execute(st, k, apiEnd)
	for extra := c.replayPasses() - 1; extra > 0; extra-- {
		c.dev.Execute(st, k, execEnd)
	}

	if c.LaunchBlocking {
		c.clock.AdvanceTo(st.Tail())
	}

	api := APIRecord{Name: "cudaLaunchKernel", CorrelationID: corr, Begin: apiBegin, End: apiEnd, Stream: st.ID()}
	rec := KernelRecord{Kernel: k, CorrelationID: corr, Begin: execBegin, End: execEnd, Stream: st.ID()}
	for _, h := range c.hooks {
		h.RecordAPI(api)
		h.RecordKernel(rec)
	}
	return rec
}

// Memcpy performs a synchronous host<->device copy of n bytes: the host
// blocks until all prior work on the stream and the copy itself complete.
// direction is "HtoD" or "DtoH".
func (c *Context) Memcpy(direction string, n int64, st *gpu.Stream) MemcpyRecord {
	corr := c.correlation()
	apiBegin := c.clock.Now()
	c.clock.Advance(c.dev.LaunchCPU)

	start, end := st.Enqueue(c.clock.Now(), c.dev.MemcpyDuration(n))
	c.clock.AdvanceTo(end)

	rec := MemcpyRecord{Direction: direction, Bytes: n, CorrelationID: corr, Begin: start, End: end, Stream: st.ID()}
	api := APIRecord{Name: "cudaMemcpy", CorrelationID: corr, Begin: apiBegin, End: c.clock.Now(), Stream: st.ID()}
	for _, h := range c.hooks {
		h.RecordAPI(api)
		h.RecordMemcpy(rec)
	}
	return rec
}

// StreamSynchronize blocks the host until all work on st completes.
func (c *Context) StreamSynchronize(st *gpu.Stream) {
	c.clock.AdvanceTo(st.Tail())
}

// DeviceSynchronize blocks the host until all work on every stream
// completes.
func (c *Context) DeviceSynchronize() {
	c.clock.AdvanceTo(c.dev.MaxTail())
}
