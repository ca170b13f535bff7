package bench

import (
	"strings"

	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

// Input is one tenant's generated arrival stream: a single repetition,
// held immutable, plus the strides that shift a copy of it past the
// previous repetition (the same remapping workload.Stream applies), so a
// run of any length replays it without generating inside the timed window.
type Input struct {
	Tenant  string
	Batches [][]*trace.Span
	Spans   int // spans in one repetition

	idStride   uint64
	corrStride uint64
	tStride    vclock.Time

	// memcpyBytes[b] is the integer byte total of batch b's memcpy spans,
	// HtoD then DtoH — the oracle for /api/analysis/memcpy.
	memcpyBytes [][2]int64
}

// repGap is the virtual-time gap between repetitions (workload.Stream's).
const repGap = 64

// Generate builds each tenant's repetition from the seed (tenant t uses
// seed+t). repSpans is RepSpans except in scaled-down smoke runs.
func Generate(w Workload, seed int64, repSpans int) []*Input {
	inputs := make([]*Input, len(w.Tenants))
	for t, tenant := range w.Tenants {
		s := seed + int64(t)
		in := &Input{Tenant: tenant}
		in.Batches = workload.StreamingArrivals(workload.StreamingSpec{
			Trace: workload.SyntheticSpec{
				Spans:           repSpans,
				KernelsPerLayer: 8,
				Streams:         w.Streams,
				LayerTypes:      []string{"Conv2D", "Relu", "BatchNorm", "MatMul"},
				KernelMetrics:   true,
				MemcpysPerLayer: 1,
				Seed:            s,
			},
			BatchSize:       BatchSpans,
			ReorderSkew:     w.ReorderSkew,
			StragglerWindow: w.StragglerWindow,
			Seed:            s,
		})
		var maxEnd vclock.Time
		in.memcpyBytes = make([][2]int64, len(in.Batches))
		for b, batch := range in.Batches {
			in.Spans += len(batch)
			for _, sp := range batch {
				in.idStride = max(in.idStride, sp.ID)
				in.corrStride = max(in.corrStride, sp.CorrelationID)
				maxEnd = max(maxEnd, sp.End)
				if dir := memcpyDir(sp); dir >= 0 {
					in.memcpyBytes[b][dir] += int64(sp.Metric("bytes"))
				}
			}
		}
		in.tStride = maxEnd + repGap
		inputs[t] = in
	}
	return inputs
}

// memcpyDir classifies a span the way analysis.Online does: 0 for a
// host-to-device copy, 1 for device-to-host, -1 for anything else.
func memcpyDir(sp *trace.Span) int {
	if sp.Level != trace.LevelKernel || sp.Kind != trace.KindExec {
		return -1
	}
	switch {
	case strings.HasPrefix(sp.Name, "MemcpyHtoD"):
		return 0
	case strings.HasPrefix(sp.Name, "MemcpyDtoH"):
		return 1
	}
	return -1
}

// Replay hands out an Input's batches in order, forever. Each batch is a
// shifted copy in a scratch buffer that the next call overwrites, so the
// caller must be done with a batch (acknowledged, in a closed loop) before
// asking for the next. Tags and metrics maps are shared with the immutable
// repetition; nothing downstream of the wire writes to them.
type Replay struct {
	in      *Input
	next    int // index of the next batch over all repetitions
	scratch []trace.Span
	ptrs    []*trace.Span

	Spans       int      // spans handed out so far
	MemcpyBytes [2]int64 // their memcpy byte totals, HtoD then DtoH
}

// NewReplay starts at the first batch of the first repetition.
func NewReplay(in *Input) *Replay {
	longest := 0
	for _, b := range in.Batches {
		longest = max(longest, len(b))
	}
	return &Replay{in: in, scratch: make([]trace.Span, longest), ptrs: make([]*trace.Span, longest)}
}

// Next returns the next batch of the stream.
func (r *Replay) Next() []*trace.Span {
	b := r.next % len(r.in.Batches)
	rep := uint64(r.next / len(r.in.Batches))
	r.next++
	src := r.in.Batches[b]
	for i, sp := range src {
		c := &r.scratch[i]
		*c = *sp
		shiftSpan(c, r.in, rep)
		r.ptrs[i] = c
	}
	r.Spans += len(src)
	r.MemcpyBytes[0] += r.in.memcpyBytes[b][0]
	r.MemcpyBytes[1] += r.in.memcpyBytes[b][1]
	return r.ptrs[:len(src)]
}

func shiftSpan(c *trace.Span, in *Input, rep uint64) {
	c.ID += rep * in.idStride
	if c.CorrelationID != 0 {
		c.CorrelationID += rep * in.corrStride
	}
	c.Begin += vclock.Time(rep) * in.tStride
	c.End += vclock.Time(rep) * in.tStride
}

// Materialize returns deep copies of the first n batches of the stream in
// arrival order — what a Replay that handed out n batches sent — for the
// batch-correlation oracle run after the timed window.
func (in *Input) Materialize(n int) []*trace.Span {
	out := make([]*trace.Span, 0, n*BatchSpans)
	for k := 0; k < n; k++ {
		rep := uint64(k / len(in.Batches))
		for _, sp := range in.Batches[k%len(in.Batches)] {
			c := sp.Clone()
			shiftSpan(c, in, rep)
			out = append(out, c)
		}
	}
	return out
}
