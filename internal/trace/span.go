package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"xsp/internal/vclock"
)

// Level identifies the HW/SW stack level a span was captured at. Lower
// numbers are higher in the stack (the paper numbers the model level 1).
type Level int

// Stack levels. LevelLibrary sits between the layer and GPU kernel levels
// and is captured when a run's level set includes an ML-library tracer
// (e.g. a cuDNN API tracer), as described in the paper's extensibility
// section.
const (
	LevelApplication Level = 0
	LevelModel       Level = 1
	LevelLayer       Level = 2
	LevelLibrary     Level = 3
	LevelKernel      Level = 4
)

// String returns the conventional name of the level.
func (l Level) String() string {
	switch l {
	case LevelApplication:
		return "application"
	case LevelModel:
		return "model"
	case LevelLayer:
		return "layer"
	case LevelLibrary:
		return "library"
	case LevelKernel:
		return "kernel"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Kind distinguishes the two spans XSP captures for an asynchronous
// function: the launch span (captured where the async call is made, e.g.
// cudaLaunchKernel) and the execution span (the future execution on the
// device). Synchronous events use KindSync.
type Kind int

const (
	KindSync Kind = iota
	KindLaunch
	KindExec
)

// String returns the kind name used in the JSON wire format.
func (k Kind) String() string {
	switch k {
	case KindLaunch:
		return "launch"
	case KindExec:
		return "exec"
	default:
		return "sync"
	}
}

// Span is a timed operation representing a piece of work, in distributed
// tracing terminology. IDs are unique within a simulation process.
type Span struct {
	ID       uint64
	ParentID uint64 // 0 when the parent is unknown or absent
	Level    Level
	Kind     Kind
	Name     string
	Source   string // which tracer published the span
	Begin    vclock.Time
	End      vclock.Time

	// CorrelationID links the launch span and execution span of one
	// asynchronous operation, mirroring CUPTI's correlation_id.
	CorrelationID uint64

	// Tags carry user annotations (layer type, shape, ...) as flat pairs in
	// insertion order — the order the binary codec writes and reads them in,
	// so an encode is deterministic. A key may repeat (a decoded block can
	// carry one twice); readers answer the last entry with it.
	Tags []Tag

	// Metrics carry numeric measurements (flop_count_sp, dram_read_bytes,
	// dram_write_bytes, achieved_occupancy, alloc_bytes, ...), held like
	// Tags: insertion order, last entry wins on read.
	Metrics []Metric
}

// Tag is one user annotation of a span.
type Tag struct{ Key, Value string }

// Metric is one numeric measurement of a span.
type Metric struct {
	Key   string
	Value float64
}

// Duration returns the span's measured latency.
func (s *Span) Duration() vclock.Duration { return s.End.Sub(s.Begin) }

// Tag returns the value of a tag, or "" when absent. A span carries a
// handful of entries, so the lookup is a scan: from the back, which is what
// makes the last entry with the key the one that counts.
func (s *Span) Tag(key string) string {
	for i := len(s.Tags) - 1; i >= 0; i-- {
		if s.Tags[i].Key == key {
			return s.Tags[i].Value
		}
	}
	return ""
}

// Metric returns the value of a metric, or 0 when absent.
func (s *Span) Metric(key string) float64 {
	for i := len(s.Metrics) - 1; i >= 0; i-- {
		if s.Metrics[i].Key == key {
			return s.Metrics[i].Value
		}
	}
	return 0
}

// SetTag annotates the span: the entry Tag reads for key is overwritten,
// and a new key is appended.
func (s *Span) SetTag(key, value string) {
	for i := len(s.Tags) - 1; i >= 0; i-- {
		if s.Tags[i].Key == key {
			s.Tags[i].Value = value
			return
		}
	}
	s.Tags = append(s.Tags, Tag{key, value})
}

// SetMetric records a numeric measurement on the span, like SetTag.
func (s *Span) SetMetric(key string, value float64) {
	for i := len(s.Metrics) - 1; i >= 0; i-- {
		if s.Metrics[i].Key == key {
			s.Metrics[i].Value = value
			return
		}
	}
	s.Metrics = append(s.Metrics, Metric{key, value})
}

// Clone returns a deep copy of the span.
func (s *Span) Clone() *Span {
	c := *s
	c.Tags = slices.Clone(s.Tags)
	c.Metrics = slices.Clone(s.Metrics)
	return &c
}

// CloneHeaders returns a copy of every span — the scalar fields, ParentID
// included, and the Tags and Metrics entries — sharing only Name, Source and
// the strings the entries hold, which are immutable once published; nil
// entries stay nil. The copies share three allocations (headers, tag
// entries, metric entries), which live as long as any of them does. A view
// needs the entries copied: a span fed owned to a stream correlator gives its
// entry arrays back with its slot when it folds (RecycleSpans), and the next
// decode refills them. Use Clone for a span whose entries may be written.
func CloneHeaders(spans []*Span) []*Span {
	nt, nm := 0, 0
	for _, s := range spans {
		if s != nil {
			nt, nm = nt+len(s.Tags), nm+len(s.Metrics)
		}
	}
	headers := make([]Span, 0, len(spans))
	tags, mets := make([]Tag, 0, nt), make([]Metric, 0, nm)
	out := make([]*Span, len(spans))
	for i, s := range spans {
		if s != nil {
			headers = append(headers, *s)
			h := &headers[len(headers)-1]
			h.Tags, tags = appendPiece(tags, s.Tags)
			h.Metrics, mets = appendPiece(mets, s.Metrics)
			out[i] = h
		}
	}
	return out
}

// appendPiece copies p onto the end of arena, which has room for it, and
// returns the copy with no capacity to spare (nil when p is empty) and the
// extended arena.
func appendPiece[T any](arena, p []T) ([]T, []T) {
	if len(p) == 0 {
		return nil, arena
	}
	at := len(arena)
	arena = append(arena, p...)
	return arena[at:len(arena):len(arena)], arena
}

var nextSpanID atomic.Uint64

// NewSpanID returns a process-unique span identifier.
func NewSpanID() uint64 { return nextSpanID.Add(1) }

// Trace is an aggregated timeline: the set of spans published by all
// tracers during one evaluation, as assembled by a tracing server. It is
// its spans and nothing else: every query below is a loop over Spans as
// they are at the call, so appending, truncating, reordering or editing
// spans in place needs no bookkeeping. Appends and in-place span mutations
// need external synchronization against concurrent readers.
type Trace struct {
	Spans []*Span

	// Tenant is the ingest domain the spans belong to; "" means
	// DefaultTenant. It rides the wire formats (the binary frame's tenant
	// header field, the JSON envelope) so a batch stays routable without
	// its transport headers; span-level queries ignore it.
	Tenant string
}

// SortByBegin orders the spans by begin time, breaking ties by level (outer
// levels first) and then by span ID, giving a stable hierarchical timeline.
func (t *Trace) SortByBegin() { sortSpansCanonical(t.Spans) }

// ByLevel returns the spans at the given stack level in begin order, ties
// kept in Spans order. The slice is the caller's.
func (t *Trace) ByLevel(level Level) []*Span {
	var out []*Span
	for _, s := range t.Spans {
		if s.Level == level {
			out = append(out, s)
		}
	}
	slices.SortStableFunc(out, func(a, b *Span) int { return cmp.Compare(a.Begin, b.Begin) })
	return out
}

// Find returns the first span in Spans order with the given name, or nil.
func (t *Trace) Find(name string) *Span {
	for _, s := range t.Spans {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// SpansByID maps each span ID to its span; of spans sharing an ID, the
// first in Spans order wins. Code that walks parent links builds it once
// per pass.
func (t *Trace) SpansByID() map[uint64]*Span {
	byID := make(map[uint64]*Span, len(t.Spans))
	for _, s := range t.Spans {
		if _, ok := byID[s.ID]; !ok {
			byID[s.ID] = s
		}
	}
	return byID
}

// Levels returns the sorted distinct levels present in the trace.
func (t *Trace) Levels() []Level {
	var levels []Level
	for _, s := range t.Spans {
		if !slices.Contains(levels, s.Level) {
			levels = append(levels, s.Level)
		}
	}
	slices.Sort(levels)
	return levels
}
