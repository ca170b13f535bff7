package trace

import (
	"slices"
	"sync"

	"xsp/internal/vclock"
)

// Collector receives published spans. The in-process tracing server, the
// HTTP client, and test doubles all implement Collector. Publish must be
// safe for concurrent use: multiple tracers (profilers) publish into the
// same server, as in real distributed tracing.
type Collector interface {
	Publish(spans ...*Span)
}

// Memory is an in-memory tracing server: it aggregates the spans published
// by all tracers into a single timeline trace. It is one span slice behind
// one mutex — Publish appends, Trace sorts a copy — and safe for concurrent
// use by any number of publishers and readers. The zero value is ready to
// use.
type Memory struct {
	mu    sync.Mutex
	spans []*Span // publish order; the prefix is immutable (Reset replaces the slice)
}

// NewMemory returns an empty in-memory collector.
func NewMemory() *Memory { return &Memory{} }

// Publish appends the spans to the aggregated trace.
func (m *Memory) Publish(spans ...*Span) {
	if len(spans) == 0 {
		return
	}
	m.mu.Lock()
	m.spans = append(m.spans, spans...)
	m.mu.Unlock()
}

// Trace returns the aggregated timeline trace in canonical order
// (CanonicalLess). Only the slice header is captured under the lock: its
// prefix is never overwritten (Publish appends, Reset replaces the slice),
// so the copy and sort run outside it, and an already-ordered collection —
// a single tracer publishes along its own advancing timeline — costs one
// scan.
//
// The returned trace shares span pointers with the collector: mutating a
// span through the returned trace is visible to later Trace calls and to
// the publisher that created it. That sharing is deliberate — it is what
// lets core.Correlate write ParentID links that persist across reads. The
// returned slice itself is the caller's.
func (m *Memory) Trace() *Trace {
	m.mu.Lock()
	spans := m.spans
	m.mu.Unlock()
	out := slices.Clone(spans)
	sortSpansCanonical(out)
	return &Trace{Spans: out}
}

// Reset discards all collected spans so the collector can be reused for an
// independent evaluation run. Reset is not atomic with respect to in-flight
// publishes: quiesce publishers before resetting, as between evaluation
// runs.
func (m *Memory) Reset() {
	m.mu.Lock()
	m.spans = nil
	m.mu.Unlock()
}

// Len returns the number of spans collected so far.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.spans)
}

// Tracer creates and publishes spans for one profiler at one stack level.
// Leveled experimentation chooses the levels of a run by which tracers it
// builds (core.Session.Profile builds one per level in its LevelSet), so a
// tracer always publishes.
type Tracer struct {
	source    string
	level     Level
	collector Collector
}

// NewTracer returns a tracer that publishes to c.
func NewTracer(source string, level Level, c Collector) *Tracer {
	return &Tracer{source: source, level: level, collector: c}
}

// Source returns the tracer's source name.
func (t *Tracer) Source() string { return t.source }

// StartSpan creates a span beginning at the given instant. The span is not
// published until FinishSpan.
func (t *Tracer) StartSpan(name string, begin vclock.Time) *Span {
	return &Span{
		ID:     NewSpanID(),
		Level:  t.level,
		Name:   name,
		Source: t.source,
		Begin:  begin,
	}
}

// FinishSpan completes the span at the given instant and publishes it.
func (t *Tracer) FinishSpan(s *Span, end vclock.Time) {
	s.End = end
	t.collector.Publish(s)
}

// PublishCompleted publishes an already-completed span (used when a
// profiler's output is converted to spans offline, after the run).
func (t *Tracer) PublishCompleted(s *Span) {
	t.collector.Publish(s)
}
