package cuda

import (
	"testing"
	"time"

	"xsp/internal/gpu"
	"xsp/internal/vclock"
)

// recorder is a test ProfilerHook that captures records and optionally
// injects overhead, standing in for CUPTI.
type recorder struct {
	overhead time.Duration
	passes   int
	apis     []APIRecord
	kernels  []KernelRecord
	memcpys  []MemcpyRecord
}

func (r *recorder) LaunchCPUOverhead() time.Duration { return r.overhead }
func (r *recorder) ReplayPasses() int {
	if r.passes == 0 {
		return 1
	}
	return r.passes
}
func (r *recorder) RecordAPI(a APIRecord)       { r.apis = append(r.apis, a) }
func (r *recorder) RecordKernel(k KernelRecord) { r.kernels = append(r.kernels, k) }
func (r *recorder) RecordMemcpy(m MemcpyRecord) { r.memcpys = append(r.memcpys, m) }

func newCtx() (*Context, *vclock.Clock) {
	clock := vclock.New(0)
	dev := gpu.NewDevice(gpu.TeslaV100)
	return NewContext(dev, clock), clock
}

// oneMsKernel takes exactly 1ms of compute on a V100 (plus the kernel gap).
var oneMsKernel = gpu.Kernel{Name: "k", Flops: 15.7e9, ComputeEff: 1, MemEff: 1}

func TestAsyncLaunchDoesNotBlockHost(t *testing.T) {
	ctx, clock := newCtx()
	st := ctx.Device().DefaultStream()
	rec := ctx.LaunchKernel(oneMsKernel, st)

	// Host advanced only by the launch API cost.
	if got := clock.Now(); got != vclock.Time(gpu.TeslaV100.LaunchCPU) {
		t.Fatalf("host clock = %v, want launch cost only", got)
	}
	// The kernel runs on the stream after the API call.
	if rec.Begin != vclock.Time(gpu.TeslaV100.LaunchCPU) {
		t.Fatalf("exec begin = %v", rec.Begin)
	}
	wantEnd := rec.Begin.Add(time.Millisecond + gpu.TeslaV100.KernelGap)
	if rec.End != wantEnd {
		t.Fatalf("exec end = %v, want %v", rec.End, wantEnd)
	}
	if rec.CorrelationID == 0 {
		t.Fatal("correlation id not assigned")
	}
}

func TestLaunchBlockingSerializes(t *testing.T) {
	ctx, clock := newCtx()
	ctx.LaunchBlocking = true
	st := ctx.Device().DefaultStream()
	rec := ctx.LaunchKernel(oneMsKernel, st)
	if clock.Now() != rec.End {
		t.Fatalf("LaunchBlocking: host at %v, kernel ends %v", clock.Now(), rec.End)
	}
}

func TestCorrelationIDsIncrease(t *testing.T) {
	ctx, _ := newCtx()
	st := ctx.Device().DefaultStream()
	r1 := ctx.LaunchKernel(oneMsKernel, st)
	r2 := ctx.LaunchKernel(oneMsKernel, st)
	if r2.CorrelationID <= r1.CorrelationID {
		t.Fatal("correlation ids must increase")
	}
}

func TestStreamSerializesKernels(t *testing.T) {
	ctx, _ := newCtx()
	st := ctx.Device().DefaultStream()
	r1 := ctx.LaunchKernel(oneMsKernel, st)
	r2 := ctx.LaunchKernel(oneMsKernel, st)
	if r2.Begin < r1.End {
		t.Fatalf("kernels overlap on one stream: %v < %v", r2.Begin, r1.End)
	}
}

func TestSeparateStreamsOverlap(t *testing.T) {
	ctx, _ := newCtx()
	s0 := ctx.Device().DefaultStream()
	s1 := ctx.Device().NewStream()
	r1 := ctx.LaunchKernel(oneMsKernel, s0)
	r2 := ctx.LaunchKernel(oneMsKernel, s1)
	if r2.Begin >= r1.End {
		t.Fatalf("kernels on distinct streams should overlap: r2 starts %v, r1 ends %v", r2.Begin, r1.End)
	}
}

func TestHookReceivesRecordsAndOverhead(t *testing.T) {
	ctx, clock := newCtx()
	r := &recorder{overhead: 80 * time.Microsecond}
	ctx.Attach(r)
	st := ctx.Device().DefaultStream()
	ctx.LaunchKernel(oneMsKernel, st)

	want := vclock.Time(gpu.TeslaV100.LaunchCPU + 80*time.Microsecond)
	if clock.Now() != want {
		t.Fatalf("profiled launch host cost = %v, want %v", clock.Now(), want)
	}
	if len(r.apis) != 1 || r.apis[0].Name != "cudaLaunchKernel" {
		t.Fatalf("api records = %+v", r.apis)
	}
	if len(r.kernels) != 1 || r.kernels[0].Kernel.Name != "k" {
		t.Fatalf("kernel records = %+v", r.kernels)
	}
	if r.apis[0].CorrelationID != r.kernels[0].CorrelationID {
		t.Fatal("launch/exec correlation ids differ")
	}
}

func TestReplayPassesInflateStreamNotWindow(t *testing.T) {
	ctx, _ := newCtx()
	r := &recorder{passes: 3}
	ctx.Attach(r)
	st := ctx.Device().DefaultStream()
	rec := ctx.LaunchKernel(oneMsKernel, st)

	// Reported window is a single pass.
	if d := rec.End.Sub(rec.Begin); d != time.Millisecond+gpu.TeslaV100.KernelGap {
		t.Fatalf("reported window = %v", d)
	}
	// Stream tail includes all three passes.
	wantTail := rec.Begin.Add(3 * (time.Millisecond + gpu.TeslaV100.KernelGap))
	if st.Tail() != wantTail {
		t.Fatalf("stream tail = %v, want %v", st.Tail(), wantTail)
	}
}

func TestMemcpyBlocksHost(t *testing.T) {
	ctx, clock := newCtx()
	r := &recorder{}
	ctx.Attach(r)
	st := ctx.Device().DefaultStream()
	// 12 GB over 12 GB/s PCIe = 1 s.
	rec := ctx.Memcpy("HtoD", 12e9, st)
	if clock.Now() != rec.End {
		t.Fatalf("Memcpy is synchronous: host %v, copy end %v", clock.Now(), rec.End)
	}
	if len(r.memcpys) != 1 || r.memcpys[0].Direction != "HtoD" || r.memcpys[0].Bytes != 12e9 {
		t.Fatalf("memcpy record = %+v", r.memcpys)
	}
	if len(r.apis) != 1 || r.apis[0].Name != "cudaMemcpy" {
		t.Fatalf("api record = %+v", r.apis)
	}
}

func TestMemcpyWaitsForStream(t *testing.T) {
	ctx, _ := newCtx()
	st := ctx.Device().DefaultStream()
	k := ctx.LaunchKernel(oneMsKernel, st)
	rec := ctx.Memcpy("DtoH", 1, st)
	if rec.Begin < k.End {
		t.Fatalf("copy began %v before kernel end %v", rec.Begin, k.End)
	}
}

func TestSynchronize(t *testing.T) {
	ctx, clock := newCtx()
	s0 := ctx.Device().DefaultStream()
	s1 := ctx.Device().NewStream()
	ctx.LaunchKernel(oneMsKernel, s0)
	r2 := ctx.LaunchKernel(oneMsKernel, s1)

	ctx.StreamSynchronize(s0)
	if clock.Now() != s0.Tail() {
		t.Fatal("StreamSynchronize did not advance host to stream tail")
	}
	ctx.DeviceSynchronize()
	if clock.Now() != r2.End {
		t.Fatalf("DeviceSynchronize: host %v, want %v", clock.Now(), r2.End)
	}
}
