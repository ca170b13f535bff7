package gpu

import (
	"fmt"
	"time"

	"xsp/internal/vclock"
)

// CacheFactor models how effectively streaming (element-wise, pooling,
// normalization) kernels are filtered by the L2 cache as batch size grows,
// as a multiplier on their DRAM traffic. At batch 1 the activation tensors
// of typical CNNs fit in the multi-MB L2, so little traffic reaches DRAM;
// through batches 8-32 tensors exceed L2 with poor reuse, inflating
// traffic; at large batches the streaming access amortizes. Calibrated to
// Table VI of the paper, where MLPerf_ResNet50_v1.5 moves ~390 MB/image at
// batch 1-8, peaks ~440 MB/image at batch 16-32, and declines to
// ~212 MB/image at batch 256.
func CacheFactor(batch int) float64 {
	switch {
	case batch <= 1:
		return 0.9
	case batch <= 2:
		return 1.6
	case batch <= 4:
		return 1.75
	case batch <= 32:
		return 1.76
	case batch <= 64:
		return 1.7
	case batch <= 128:
		return 1.47
	default:
		return 1.45
	}
}

// Dim3 is a CUDA grid or block dimension triple.
type Dim3 [3]int

// String formats like the paper's figures, e.g. "[98,2,2]".
func (d Dim3) String() string { return fmt.Sprintf("[%d,%d,%d]", d[0], d[1], d[2]) }

// Kernel describes one GPU kernel instance as handed to the device by a
// library (cuDNN, cuBLAS, Eigen, ...). The flop and DRAM byte counts are the
// kernel's intrinsic work; ComputeEff and MemEff encode what fraction of the
// device peak the kernel's implementation achieves (cuDNN conv kernels reach
// ~80 % of peak flops in the paper's Table III; Eigen element-wise kernels
// reach ~40 % of peak bandwidth in Table IV); Occupancy is the achieved
// occupancy the profiler will report.
type Kernel struct {
	Name  string
	Grid  Dim3
	Block Dim3

	Flops     float64 // single-precision flop count (flop_count_sp)
	DramRead  float64 // bytes read from DRAM (dram_read_bytes)
	DramWrite float64 // bytes written to DRAM (dram_write_bytes)

	ComputeEff float64 // fraction of peak FLOPS achievable, (0,1]
	MemEff     float64 // fraction of peak bandwidth achievable, (0,1]
	Occupancy  float64 // achieved_occupancy reported for the kernel, [0,1]
}

// ArithmeticIntensity returns flops per DRAM byte for the kernel.
func (k Kernel) ArithmeticIntensity() float64 {
	bytes := k.DramRead + k.DramWrite
	if bytes == 0 {
		return 0
	}
	return k.Flops / bytes
}

// Duration computes the kernel's execution latency on the device using the
// roofline law: the kernel runs at the slower of its achievable compute rate
// and its achievable memory rate, plus the device's fixed per-kernel cost.
func (s Spec) Duration(k Kernel) time.Duration {
	ceff := k.ComputeEff
	if ceff <= 0 || ceff > 1 {
		ceff = 1
	}
	meff := k.MemEff
	if meff <= 0 || meff > 1 {
		meff = 1
	}
	var compute, memory float64 // seconds
	if k.Flops > 0 {
		compute = k.Flops / (s.PeakFLOPS() * ceff)
	}
	if b := k.DramRead + k.DramWrite; b > 0 {
		memory = b / (s.MemBW() * meff)
	}
	sec := compute
	if memory > sec {
		sec = memory
	}
	return time.Duration(sec*1e9)*time.Nanosecond + s.KernelGap
}

// MemcpyDuration returns the latency of a host<->device copy of n bytes.
func (s Spec) MemcpyDuration(n int64) time.Duration {
	if n <= 0 {
		return s.KernelGap
	}
	sec := float64(n) / (s.PCIeGBps * 1e9)
	return time.Duration(sec*1e9)*time.Nanosecond + s.KernelGap
}

// Stream is one GPU work queue: kernels enqueued on a stream execute in
// order, each starting no earlier than both its enqueue instant and the
// completion of the stream's previous work.
type Stream struct {
	id   int
	tail vclock.Time
	busy time.Duration // total execution time enqueued, for utilization
}

// ID returns the stream's identifier (0 is the default stream).
func (st *Stream) ID() int { return st.id }

// Tail returns the instant the stream's last enqueued work completes.
func (st *Stream) Tail() vclock.Time { return st.tail }

// Busy returns the total device time consumed by work on this stream.
func (st *Stream) Busy() time.Duration { return st.busy }

// Enqueue schedules d of work at or after instant at, returning the work's
// execution window.
func (st *Stream) Enqueue(at vclock.Time, d time.Duration) (start, end vclock.Time) {
	start = vclock.Max(at, st.tail)
	end = start.Add(d)
	st.tail = end
	st.busy += d
	return start, end
}

// saturationOccupancy is the achieved occupancy at which one kernel
// saturates the device: kernels above it leave no room for concurrent
// kernels on other streams, kernels below it co-run proportionally.
const saturationOccupancy = 0.55

// Device is one simulated GPU: a spec plus runtime state (streams and a
// device-wide execution engine that makes concurrent streams contend).
type Device struct {
	Spec
	streams []*Stream
	engine  Stream // shared SM pool: cross-stream contention
}

// NewDevice returns a device with its default stream created.
func NewDevice(spec Spec) *Device {
	d := &Device{Spec: spec}
	d.streams = []*Stream{{id: 0}}
	return d
}

// DefaultStream returns stream 0.
func (d *Device) DefaultStream() *Stream { return d.streams[0] }

// NewStream creates an additional stream.
func (d *Device) NewStream() *Stream {
	st := &Stream{id: len(d.streams)}
	d.streams = append(d.streams, st)
	return st
}

// MaxTail returns the completion instant of the latest work on any stream.
func (d *Device) MaxTail() vclock.Time {
	var t vclock.Time
	for _, st := range d.streams {
		t = vclock.Max(t, st.tail)
	}
	return t
}

// Execute enqueues kernel k on stream st no earlier than at, returning the
// execution window.
//
// Streams contend for the device: each kernel consumes a share of the
// device-wide engine proportional to its achieved occupancy (saturating at
// saturationOccupancy). On a single stream the engine never delays
// anything — kernels are already serial — so the calibrated timing model
// is unchanged; with multiple streams, low-occupancy kernels co-run while
// high-occupancy kernels serialize against each other.
func (d *Device) Execute(st *Stream, k Kernel, at vclock.Time) (start, end vclock.Time) {
	dur := d.Duration(k)
	start = vclock.Max(at, st.tail)
	end = start.Add(dur)

	if frac := k.Occupancy / saturationOccupancy; frac > 0 {
		if frac > 1 {
			frac = 1
		}
		engineWork := time.Duration(float64(dur) * frac)
		if _, engineEnd := d.engine.Enqueue(start, engineWork); engineEnd > end {
			end = engineEnd
		}
	}

	st.tail = end
	st.busy += dur
	return start, end
}

// Reset clears runtime state (streams and engine) so the device can be
// reused for an independent evaluation.
func (d *Device) Reset() {
	d.streams = []*Stream{{id: 0}}
	d.engine = Stream{}
}
