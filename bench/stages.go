package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"xsp/internal/analysis"
	"xsp/internal/gpu"
	"xsp/internal/trace"
)

// stagePasses is how many times each stage is timed over the repetition;
// the median pass is reported.
const stagePasses = 5

// StageResult is the standalone cost of the pipeline's four pure stages on
// the same generated batches the workloads ship: one call each, nothing
// else running, so a change to one stage is visible without the server.
type StageResult struct {
	EncodeNSPerSpan   float64
	DecodeNSPerSpan   float64
	DecodeAllocsPer   float64
	WireBytesPerSpan  float64
	PublishNSPerSpan  float64
	MemoryHeapPerSpan float64
	ObserveNSPerSpan  float64
}

// RunStages times the stage calls over one tenant's repetition.
func RunStages(in *Input) (StageResult, error) {
	var res StageResult
	spans := float64(in.Spans)
	medianPass := func(pass func() time.Duration) float64 {
		ds := make([]float64, stagePasses)
		for i := range ds {
			ds[i] = float64(pass())
		}
		sort.Float64s(ds)
		return ds[len(ds)/2] / spans
	}

	// Encode: the collector's per-batch frame.
	frames := make([][]byte, len(in.Batches))
	var buf []byte
	res.EncodeNSPerSpan = medianPass(func() time.Duration {
		start := time.Now()
		for _, b := range in.Batches {
			buf = trace.AppendBinaryFrameTenant(buf[:0], in.Tenant, b)
		}
		return time.Since(start)
	})
	wire := 0
	for i, b := range in.Batches {
		frames[i] = trace.AppendBinaryFrameTenant(nil, in.Tenant, b)
		wire += len(frames[i])
	}
	res.WireBytesPerSpan = float64(wire) / spans

	// Decode: the server's per-request decode, allocations included.
	decoded := make([][]*trace.Span, len(frames))
	var decodeErr error
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res.DecodeNSPerSpan = medianPass(func() time.Duration {
		start := time.Now()
		for i, f := range frames {
			tr, err := trace.DecodeBinary(bytes.NewReader(f))
			if err != nil {
				decodeErr = err
				return 0
			}
			decoded[i] = tr.Spans
		}
		return time.Since(start)
	})
	runtime.ReadMemStats(&m1)
	if decodeErr != nil {
		return res, fmt.Errorf("bench: stage decode: %w", decodeErr)
	}
	res.DecodeAllocsPer = float64(m1.Mallocs-m0.Mallocs) / (spans * stagePasses)

	// Raw-store publish of the decoded spans, and what the store retains.
	var mem *trace.Memory
	res.PublishNSPerSpan = medianPass(func() time.Duration {
		mem = trace.NewMemory()
		start := time.Now()
		for _, b := range decoded {
			mem.Publish(b...)
		}
		return time.Since(start)
	})
	heapWith := heapAfterGC()
	kept := mem.Len()
	mem, decoded = nil, nil
	res.MemoryHeapPerSpan = float64(heapWith-heapAfterGC()) / float64(max(kept, 1))

	// Online analyses: one ObserveSpan per span, arrival order.
	res.ObserveNSPerSpan = medianPass(func() time.Duration {
		eng := analysis.NewOnline(analysis.OnlineOptions{Spec: gpu.TeslaV100})
		start := time.Now()
		for _, b := range in.Batches {
			for _, s := range b {
				eng.ObserveSpan(s)
			}
		}
		return time.Since(start)
	})
	return res, nil
}

// heapAfterGC is the live heap once garbage is gone.
func heapAfterGC() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
