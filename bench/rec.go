package bench

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// Depth places a recorded span on XSP's own stack levels when the run is
// saved as a trace.Trace: the workload run is the model, a call into a
// pipeline stage is a layer, a file-system operation is a kernel.
type Depth int

const (
	DepthRun Depth = iota
	DepthStage
	DepthOp
)

// RecSpan is one recorded interval at a layer boundary. Parent is the span
// that caused it (0 for the run itself); Batch is the ingest batch id all
// spans of one request share. Weight scales a sampled span up to the calls
// it stands for (the observer recorder times 1 call in 64).
type RecSpan struct {
	ID     int
	Parent int
	Layer  string // the repo package the time belongs to, e.g. "trace.server"
	Name   string
	Depth  Depth
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Batch  uint64
	Weight float64
}

// Recorder keeps spans in memory; nothing is written until the run ends.
type Recorder struct {
	epoch time.Time

	// ClockCost is what one time.Now pair measures around nothing: the
	// floor under every recorded duration. Only the sampled observer
	// recorder subtracts it; every other span is microseconds or more.
	ClockCost time.Duration

	mu    sync.Mutex
	spans []RecSpan
	links map[uint64]int // batch id → the latest span recorded for it
}

// NewRecorder starts the epoch now.
func NewRecorder() *Recorder {
	pairs := make([]time.Duration, 201)
	for i := range pairs {
		t0 := time.Now()
		pairs[i] = time.Since(t0)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	return &Recorder{epoch: time.Now(), ClockCost: pairs[len(pairs)/2], links: make(map[uint64]int)}
}

// Link names span as the cause of whatever is recorded next for the batch;
// Linked reads it back. A request crosses goroutines and a process
// boundary between recorders, and the batch id is the one thing every
// boundary sees, so it carries the causal chain post → handle → feed.
func (r *Recorder) Link(batch uint64, span int) {
	if batch == 0 {
		return
	}
	r.mu.Lock()
	r.links[batch] = span
	r.mu.Unlock()
}

func (r *Recorder) Linked(batch uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.links[batch]
}

// Begin opens a span and returns its id; End closes it.
func (r *Recorder) Begin(layer, name string, depth Depth, parent int, batch uint64) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, RecSpan{ID: id, Parent: parent, Layer: layer, Name: name, Depth: depth, Start: now, End: -1, Batch: batch, Weight: 1})
	return id
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records an already-timed span.
func (r *Recorder) Add(s RecSpan, start, end time.Time) int {
	s.Start, s.End = start.Sub(r.epoch), end.Sub(r.epoch)
	if s.Weight == 0 {
		s.Weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// SetBatch fills in a batch id learned after the span began (a flush
// learns it when the collector posts).
func (r *Recorder) SetBatch(id int, batch uint64) {
	r.mu.Lock()
	r.spans[id-1].Batch = batch
	r.mu.Unlock()
}

// Spans returns the closed spans recorded so far.
func (r *Recorder) Spans() []RecSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RecSpan, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children are clipped to the
// parent and overlapping children are counted once, so asynchronous or
// concurrent children never push a self time below zero; a sampled
// child's cover is scaled by its weight, capped at what is left.
func SelfTimes(spans []RecSpan) map[int]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]RecSpan)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		dur := s.End - s.Start
		var plain []iv
		var sampled time.Duration
		for _, c := range kids[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if c.Weight != 1 {
				sampled += time.Duration(float64(hi-lo) * c.Weight)
				continue
			}
			plain = append(plain, iv{lo, hi})
		}
		sort.Slice(plain, func(i, j int) bool { return plain[i].lo < plain[j].lo })
		var covered, reach time.Duration
		reach = s.Start
		for _, c := range plain {
			if c.hi <= reach {
				continue
			}
			covered += c.hi - max(c.lo, reach)
			reach = c.hi
		}
		self[s.ID] = max(dur-covered-min(sampled, dur-covered), 0)
	}
	return self
}

// LayerSelf sums weighted self time by layer, the per-layer table a traced
// run prints. The run span's own self time is wall time nothing claimed.
func LayerSelf(spans []RecSpan) map[string]time.Duration {
	self := SelfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		d := self[s.ID]
		if s.Weight != 1 {
			d = time.Duration(float64(d) * s.Weight)
		}
		out[s.Layer] += d
	}
	return out
}

// ToTrace renders the recorded spans in the repository's own span format,
// so a benchmark run reads like any profile: the run is the model-level
// span (named model_prediction, as the analyses expect, with the workload
// in a tag), a stage call is a layer-level span whose layer_type is the
// repository package it entered and whose layer_index is its place in
// begin order, a file operation is a kernel-level span, the batch id is
// the correlation id, and the cause is the ParentID. One virtual
// nanosecond is one wall nanosecond since the recorder's epoch.
// xsp-analyze -analyses A1,A2,A5,A6 then gives the run's wall time, its
// slowest calls, and call count and time by package.
func ToTrace(spans []RecSpan) *trace.Trace {
	ordered := append([]RecSpan(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })
	tr := &trace.Trace{Spans: make([]*trace.Span, 0, len(ordered))}
	calls := 0
	for _, s := range ordered {
		sp := &trace.Span{
			ID: uint64(s.ID), ParentID: uint64(s.Parent), Source: "xspbench",
			Name:  s.Layer + "." + s.Name,
			Begin: vclock.Time(s.Start), End: vclock.Time(s.End),
			CorrelationID: s.Batch,
		}
		switch s.Depth {
		case DepthRun:
			sp.Level, sp.Name = trace.LevelModel, "model_prediction"
			sp.SetTag("workload", s.Name)
		case DepthStage:
			sp.Level = trace.LevelLayer
			sp.SetTag("layer_index", strconv.Itoa(calls))
			sp.SetTag("layer_type", s.Layer)
			sp.SetTag("layer_shape", s.Name)
			calls++
		case DepthOp:
			sp.Level = trace.LevelKernel
		}
		if s.Weight != 1 {
			sp.SetMetric("weight", s.Weight)
		}
		tr.Spans = append(tr.Spans, sp)
	}
	tr.SortByBegin()
	return tr
}

// FromTrace is ToTrace's inverse, so the self-time table can be printed
// from a saved file.
func FromTrace(tr *trace.Trace) []RecSpan {
	out := make([]RecSpan, 0, len(tr.Spans))
	for _, sp := range tr.Spans {
		s := RecSpan{
			ID: int(sp.ID), Parent: int(sp.ParentID),
			Start: time.Duration(sp.Begin), End: time.Duration(sp.End), Batch: sp.CorrelationID, Weight: 1,
		}
		switch sp.Level {
		case trace.LevelModel:
			s.Depth, s.Layer, s.Name = DepthRun, "bench", sp.Tag("workload")
		case trace.LevelLayer:
			s.Depth, s.Layer, s.Name = DepthStage, sp.Tag("layer_type"), sp.Tag("layer_shape")
		default:
			s.Depth = DepthOp
			s.Layer, s.Name, _ = strings.Cut(sp.Name, ".")
		}
		if w := sp.Metric("weight"); w != 0 {
			s.Weight = w
		}
		out = append(out, s)
	}
	return out
}
