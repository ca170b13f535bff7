package trace

import (
	"sync"
	"sync/atomic"

	"xsp/internal/vclock"
)

// Collector receives published spans. The in-process tracing server, the
// HTTP client, and test doubles all implement Collector. Publish must be
// safe for concurrent use: multiple tracers (profilers) publish into the
// same server, as in real distributed tracing.
type Collector interface {
	Publish(spans ...*Span)
}

// memoryShards is the number of hashed public shards in a Memory. A power
// of two so the shard pick is a mask, sized so that a machine's worth of
// concurrent publishers rarely collide on one shard.
const memoryShards = 32

// MemoryShard is one ingestion buffer inside a Memory. Shards come in two
// flavors sharing this type: the fixed array of public shards that
// Memory.Publish hashes into, and dedicated shards handed out by
// Memory.Shard, each owned by a single publisher (NewTracer takes one
// automatically). A dedicated shard's mutex is therefore uncontended on
// the publish path — it exists only to synchronize with snapshot reads
// (Trace, Reset) — so concurrent tracers never serialize on each other.
// Publishes touch no state shared across shards, not even a counter.
type MemoryShard struct {
	mem *Memory // set on dedicated shards; nil inside the public array

	mu     sync.Mutex
	store  SpanStore
	closed bool // dedicated shard released back to its Memory

	// Pad to a cache line so neighboring shards in the public array do
	// not false-share.
	_ [16]byte
}

// Publish appends the spans to this shard's buffer. MemoryShard implements
// Collector, so a tracer can publish straight into its dedicated shard. A
// closed shard forwards to its Memory's hashed shards, so no span is ever
// dropped. Dedicated-shard publishes reach the Memory's tap (SetTap) like
// every other publish path.
func (sh *MemoryShard) Publish(spans ...*Span) {
	if len(spans) == 0 {
		return
	}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		sh.mem.Publish(spans...) // taps inside
		return
	}
	sh.store.AddAll(spans)
	sh.mu.Unlock()
	if sh.mem != nil {
		sh.mem.tapPublish(spans)
	}
}

// Close releases a dedicated shard back to its Memory: buffered spans move
// to the hashed public shards (nothing is lost) and the shard is
// unregistered, so short-lived publishers — a profiling run's tracers
// inside a long-lived application collector — do not accumulate shards for
// the life of the Memory. Further publishes on a closed shard forward to
// the Memory. Close on a public-array shard is a no-op.
//
// Close is atomic with respect to Trace, Len, and Reset (they exclude each
// other on the Memory's registry lock), so a concurrent snapshot sees the
// moving spans exactly once — in the dedicated shard or in the public one,
// never both or neither.
func (sh *MemoryShard) Close() {
	m := sh.mem
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	spans := sh.store.Spans()
	sh.store.Reset()
	sh.closed = true
	sh.mu.Unlock()
	for i, d := range m.dedicated {
		if d == sh {
			m.dedicated = append(m.dedicated[:i], m.dedicated[i+1:]...)
			break
		}
	}
	// Safe under m.mu: the append takes only the public shard's own lock,
	// preserving the m.mu -> shard.mu lock order used everywhere. The
	// moving spans were already forwarded to the tap when first published,
	// so the move bypasses it — a tap sees every span exactly once.
	if len(spans) > 0 {
		m.append(spans)
	}
}

// Memory is an in-memory tracing server: it aggregates the spans published
// by all tracers into a single timeline trace. The zero value is ready to
// use.
//
// Ingestion is sharded: Publish hashes each batch onto one of a fixed set
// of public shards, and Shard hands out dedicated single-publisher buffers
// (NewTracer takes one per tracer automatically), so concurrent publishers
// do not contend on a shared mutex. The shard buffers are merged — and the
// merged timeline sorted — lazily, when Trace is called.
type Memory struct {
	shards [memoryShards]MemoryShard

	// tap receives every batch published into the collector, whatever the
	// path — hashed Publish, a dedicated shard, a Tracer.
	tap atomic.Pointer[Collector]

	// mu guards the dedicated-shard registry and serializes whole-Memory
	// sweeps (Trace, Len, Reset) against shard registration and Close.
	// The publish hot path never takes it.
	mu        sync.Mutex
	dedicated []*MemoryShard
}

// NewMemory returns an empty in-memory collector.
func NewMemory() *Memory { return &Memory{} }

// SetTap registers a collector that receives every span published into
// the Memory, whichever path it takes — Memory.Publish, a dedicated
// shard, or a Tracer (tracers publish through dedicated shards) — so an
// online consumer such as a core.StreamCorrelator can follow in-process
// ingestion without every publisher teeing manually. The tap runs after
// the span lands in its shard, outside any Memory lock; batches from
// concurrent publishers reach it in an unspecified relative order, and a
// tap must be safe for concurrent use exactly like the Memory itself.
//
// The tap sees the same span pointers the collector stores: a tap that
// mutates spans while Trace readers run must work on its own copies (the
// stream correlator's Isolated mode). Spans buffered before SetTap are
// not replayed; a shard Close moves already-tapped spans between shards
// without re-forwarding them, so a tap sees every span exactly once. A
// nil tap detaches.
func (m *Memory) SetTap(c Collector) {
	if c == nil {
		m.tap.Store(nil)
		return
	}
	m.tap.Store(&c)
}

// tapPublish forwards an already-buffered batch to the tap, if one is
// attached. Callers must not hold any Memory or shard lock.
func (m *Memory) tapPublish(spans []*Span) {
	if tap := m.tap.Load(); tap != nil {
		(*tap).Publish(spans...)
	}
}

// append lands the batch on a hashed public shard without involving the
// tap — the shared path under Publish (which taps) and shard Close (whose
// spans were tapped when first published).
func (m *Memory) append(spans []*Span) {
	sh := &m.shards[spans[0].ID%memoryShards]
	sh.mu.Lock()
	sh.store.AddAll(spans)
	sh.mu.Unlock()
}

// Publish appends the spans to the aggregated trace. The batch lands on a
// public shard picked by the first span's ID; span IDs are allocated from
// a global counter (NewSpanID), so concurrent publishers almost always
// land on distinct shards. Publishers that want guaranteed-uncontended
// ingestion use a dedicated Shard instead.
func (m *Memory) Publish(spans ...*Span) {
	if len(spans) == 0 {
		return
	}
	m.append(spans)
	m.tapPublish(spans)
}

// Shard registers and returns a dedicated ingestion buffer. The caller is
// expected to be the shard's only publisher; its spans are merged into the
// aggregated trace alongside every other shard's at Trace time. A shard
// stays registered until its Close, so create one per long-lived publisher
// (not per batch) and Close it when the publisher retires; Reset empties
// open shards but keeps them valid.
func (m *Memory) Shard() *MemoryShard {
	sh := &MemoryShard{mem: m}
	m.mu.Lock()
	m.dedicated = append(m.dedicated, sh)
	m.mu.Unlock()
	return sh
}

// Trace assembles and returns the aggregated timeline trace, k-way
// merging the per-shard buffers into the canonical begin order. Each
// shard's buffer is a nearly sorted run — a tracer publishes along its own
// advancing timeline — so the merge skips the full-timeline re-sort that
// made repeated snapshots O(n log n) each: already-ordered runs are merged
// as-is in O(n log k), and only genuinely out-of-order runs are sorted,
// privately, first.
//
// The returned trace shares span pointers with the collector: mutating a
// span through the returned trace is visible to later Trace calls and to
// the publisher that created it. That sharing is deliberate — it is what
// lets core.Correlate write ParentID links that persist across reads — but
// callers that want an isolated copy (e.g. to mutate spans while
// publishers are still running) should use SnapshotTrace instead.
func (m *Memory) Trace() *Trace {
	// Only the slice headers are captured under the locks: a shard's
	// buffer prefix is immutable (publishers append, Reset replaces the
	// header), so the merge can read the runs after the sweep without
	// holding any shard lock against the publish hot path. Each shard's
	// store tracks its own canonical sortedness incrementally, so the
	// merge also skips the O(len) per-run order scan that every snapshot
	// used to pay.
	var runs []spanRun
	total := 0
	m.forEachShard(func(sh *MemoryShard) {
		sh.mu.Lock()
		spans, sorted := sh.store.Spans(), sh.store.Sorted()
		sh.mu.Unlock()
		if len(spans) > 0 {
			runs = append(runs, spanRun{spans: spans, sorted: sorted})
			total += len(spans)
		}
	})
	return &Trace{Spans: mergeKnownRuns(nil, runs, total)}
}

// SnapshotTrace is Trace with every span deep-copied (Span.Clone): the
// returned trace shares nothing with the collector, so callers may mutate
// it freely — rewrite parents, rename spans, attach tags — without those
// edits leaking into the collector or racing with concurrent publishers.
// It costs one allocation per span; prefer Trace when the sharing
// semantics are acceptable.
func (m *Memory) SnapshotTrace() *Trace {
	t := m.Trace()
	for i, s := range t.Spans {
		t.Spans[i] = s.Clone()
	}
	return t
}

// Reset discards all collected spans so the collector can be reused for an
// independent evaluation run. Dedicated shards remain registered and
// usable. Reset is not atomic with respect to in-flight publishes: quiesce
// publishers before resetting, as between evaluation runs.
func (m *Memory) Reset() {
	m.forEachShard(func(sh *MemoryShard) {
		sh.mu.Lock()
		sh.store.Reset()
		sh.mu.Unlock()
	})
}

// Len returns the number of spans collected so far, summed across shards.
// Publishes deliberately maintain no shared counter (that cache line would
// be the one point of cross-publisher contention left), so Len takes each
// shard's lock; it is meant for tests and observability, not hot paths.
func (m *Memory) Len() int {
	n := 0
	m.forEachShard(func(sh *MemoryShard) {
		sh.mu.Lock()
		n += sh.store.Len()
		sh.mu.Unlock()
	})
	return n
}

// forEachShard visits every public and dedicated shard. It holds m.mu for
// the whole sweep so that a concurrent Close (which moves a dedicated
// shard's spans into a public shard under the same lock) can never make
// the sweep see those spans twice or not at all. Publishers are unaffected:
// the publish path takes only its shard's own lock, never m.mu.
func (m *Memory) forEachShard(fn func(*MemoryShard)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.shards {
		fn(&m.shards[i])
	}
	for _, sh := range m.dedicated {
		fn(sh)
	}
}

// Tracer creates and publishes spans for one profiler at one stack level.
// Tracers can be enabled or disabled at runtime (a feature of distributed
// tracing the paper relies on for leveled experimentation); a disabled
// tracer publishes nothing and costs nothing beyond one atomic load.
type Tracer struct {
	source    string
	level     Level
	collector Collector
	enabled   atomic.Bool
}

// NewTracer returns an enabled tracer that publishes to c. When c is a
// *Memory, the tracer publishes through its own dedicated shard
// (Memory.Shard), so tracers publishing concurrently into the same
// collector never contend.
func NewTracer(source string, level Level, c Collector) *Tracer {
	if m, ok := c.(*Memory); ok {
		c = m.Shard()
	}
	t := &Tracer{source: source, level: level, collector: c}
	t.enabled.Store(true)
	return t
}

// Source returns the tracer's source name.
func (t *Tracer) Source() string { return t.source }

// Level returns the stack level this tracer captures.
func (t *Tracer) Level() Level { return t.level }

// SetEnabled toggles the tracer at runtime.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether the tracer is currently publishing.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// StartSpan creates a span beginning at the given instant. The span is not
// published until FinishSpan; a nil span is returned when the tracer is
// disabled, and FinishSpan accepts nil, so call sites need no branching.
// The disabled path is a single atomic load — no lock, no allocation.
func (t *Tracer) StartSpan(name string, begin vclock.Time) *Span {
	if !t.enabled.Load() {
		return nil
	}
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
	if s == nil {
		return
	}
	s.End = end
	t.collector.Publish(s)
}

// PublishCompleted publishes an already-completed span (used when a
// profiler's output is converted to spans offline, after the run).
func (t *Tracer) PublishCompleted(s *Span) {
	if s == nil || !t.enabled.Load() {
		return
	}
	t.collector.Publish(s)
}

// Close retires the tracer. When the tracer publishes through a dedicated
// Memory shard (NewTracer on a *Memory), the shard is released back to the
// collector — its spans move to the hashed shards, nothing is lost — so
// short-lived tracers inside a long-lived collector do not accumulate
// shards. Close per profiling run, after the tracer's last publish. A
// closed tracer still publishes correctly (forwarded through the
// collector), just without a dedicated shard.
func (t *Tracer) Close() {
	if sh, ok := t.collector.(*MemoryShard); ok {
		sh.Close()
	}
}
