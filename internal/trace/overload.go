package trace

import (
	"fmt"
	"sync"
)

// ShedPolicy is what an AsyncTap does with a published batch when its
// queue is full — the explicit overload contract between the publish path
// and a slower online consumer. Whatever the policy, the spans themselves
// are never lost: a tap on a Memory forwards spans the collector already
// buffers, and a ServerTenant whose consumer is its span store (SetHistory)
// keeps a batch its tap sheds itself — once, unresolved, merged into
// ServerTenant.Trace — so a batch re-correlate of that trace still sees it
// (see the package comment's "Overload" section). The policies trade
// publish-path latency against online-view completeness.
type ShedPolicy int

const (
	// ShedBlock applies backpressure: Publish waits for queue room. The
	// publish path inherits the consumer's pace when the queue is full —
	// for HTTP ingest that propagates naturally into admission control
	// (in-flight budgets fill, the server sheds 429s) — and the online
	// consumer sees every span.
	ShedBlock ShedPolicy = iota

	// ShedDropNewest keeps the publish path wait-free: the overflowing
	// batch is counted dropped and not enqueued. Later batches enqueue
	// again as soon as the queue has room, so the online view has point
	// gaps under bursts rather than falling behind.
	ShedDropNewest

	// ShedDegradeToBatch sheds the whole stream once the queue overflows:
	// every batch is dropped until the queue drains empty, then streaming
	// resumes. The online view's gap is one contiguous stretch per
	// degradation — the shape a batch re-correlate over the store repairs
	// most cheaply — instead of scattered holes.
	ShedDegradeToBatch
)

// String returns the flag-style name of the policy (see ParseShedPolicy).
func (p ShedPolicy) String() string {
	switch p {
	case ShedBlock:
		return "block"
	case ShedDropNewest:
		return "drop"
	case ShedDegradeToBatch:
		return "degrade"
	default:
		return fmt.Sprintf("ShedPolicy(%d)", int(p))
	}
}

// ParseShedPolicy parses a policy's flag-style name.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "block":
		return ShedBlock, nil
	case "drop":
		return ShedDropNewest, nil
	case "degrade":
		return ShedDegradeToBatch, nil
	default:
		return 0, fmt.Errorf("trace: unknown shed policy %q (want block, drop, or degrade)", s)
	}
}

// TapOptions configures an AsyncTap.
type TapOptions struct {
	// Queue bounds the tap's backlog, in spans: batches enqueue until the
	// spans waiting to be forwarded would exceed it, then Policy applies.
	// Zero applies DefaultTapQueue. An oversized batch (bigger than the
	// whole bound) is admitted alone when the queue is empty, so no batch
	// can wedge a ShedBlock tap forever.
	Queue int

	// Policy is what Publish does when the queue is full.
	Policy ShedPolicy
}

// DefaultTapQueue is the queue bound applied when TapOptions.Queue is zero.
const DefaultTapQueue = 65536

// AsyncTap decouples the publish path from a tap consumer through a
// bounded queue: Publish enqueues the batch — a short critical section,
// no consumer work — and a single worker goroutine forwards batches to
// the destination collector in arrival order. The queue bound and
// ShedPolicy make behavior under overload explicit instead of letting a
// slow consumer grow an unbounded backlog or stall every publisher.
//
// AsyncTap implements Collector, so it drops in wherever a synchronous
// tap went: mem.SetTap(NewAsyncTap(sc, opts)) — or the one-call
// Memory.SetTapAsync / ServerTenant.SetTapAsync. Like a synchronous tap it
// forwards the same span pointers and the same batch slices it was given;
// the destination's sharing contract (see Memory.SetTap) is unchanged,
// and batches reach the destination exactly once, in the order their
// Publish calls enqueued them. Close the tap when detaching it, so the
// worker exits.
type AsyncTap struct {
	dst  Collector
	max  int
	pol  ShedPolicy
	keep func([]*Span) // takes each batch the policy sheds; nil when whoever publishes already holds it
	wg   sync.WaitGroup
	mu   sync.Mutex
	cond *sync.Cond // broadcast: queue state changed (room, work, or close)

	queue    [][]*Span
	depth    int // spans enqueued, not yet handed to dst
	busy     int // spans handed to dst, Publish not yet returned
	closed   bool
	degraded bool // ShedDegradeToBatch: shedding until the queue drains

	enqueued     int64 // spans accepted into the queue, ever
	forwarded    int64 // spans delivered to dst, ever
	dropped      int64 // spans shed by policy, ever
	degradations int   // times ShedDegradeToBatch switched to shedding
	maxDepth     int
}

// AsyncTapStats is a point-in-time snapshot of an AsyncTap's progress and
// shedding counters.
type AsyncTapStats struct {
	Enqueued     int64 // spans accepted into the queue, ever
	Forwarded    int64 // spans delivered to the destination, ever
	Dropped      int64 // spans shed by the policy, ever
	Depth        int   // spans currently queued or being forwarded
	MaxDepth     int   // high-water mark of Depth
	Degraded     bool  // ShedDegradeToBatch currently shedding
	Degradations int   // times ShedDegradeToBatch switched to shedding, ever
}

// NewAsyncTap starts an async tap forwarding to dst. Close it when done.
func NewAsyncTap(dst Collector, opts TapOptions) *AsyncTap {
	if opts.Queue <= 0 {
		opts.Queue = DefaultTapQueue
	}
	t := &AsyncTap{dst: dst, max: opts.Queue, pol: opts.Policy}
	t.cond = sync.NewCond(&t.mu)
	t.wg.Add(1)
	go t.run()
	return t
}

// Publish enqueues the batch for the worker, applying the shed policy
// when the queue is full. After Close, batches forward synchronously to
// the destination — a tap being detached must not silently eat a final
// straggling publish.
func (t *AsyncTap) Publish(spans ...*Span) {
	n := len(spans)
	if n == 0 {
		return
	}
	t.mu.Lock()
	for {
		if t.closed {
			t.mu.Unlock()
			t.dst.Publish(spans...)
			return
		}
		if t.degraded {
			// Degraded: shed everything until the worker drains the queue.
			t.drop(spans)
			return
		}
		if t.depth+t.busy+n <= t.max || t.depth+t.busy == 0 {
			break // room — or an oversized batch admitted alone
		}
		switch t.pol {
		case ShedBlock:
			t.cond.Wait()
			continue
		case ShedDropNewest:
			t.drop(spans)
			return
		case ShedDegradeToBatch:
			t.degraded = true
			t.degradations++
			t.drop(spans)
			return
		}
	}
	t.queue = append(t.queue, spans)
	t.depth += n
	t.enqueued += int64(n)
	if d := t.depth + t.busy; d > t.maxDepth {
		t.maxDepth = d
	}
	t.cond.Broadcast()
	t.mu.Unlock()
}

// drop sheds a batch: counted, the lock released, and the batch handed to
// the keeper — outside the lock, so shedding never waits on a store. Callers
// hold t.mu and return.
func (t *AsyncTap) drop(spans []*Span) {
	t.dropped += int64(len(spans))
	t.mu.Unlock()
	if t.keep != nil {
		t.keep(spans)
	}
}

// run is the worker: it forwards queued batches to the destination, one
// at a time, outside the lock.
func (t *AsyncTap) run() {
	defer t.wg.Done()
	t.mu.Lock()
	for {
		for len(t.queue) == 0 && !t.closed {
			t.cond.Wait()
		}
		if len(t.queue) == 0 && t.closed {
			t.mu.Unlock()
			return
		}
		batch := t.queue[0]
		t.queue[0] = nil
		t.queue = t.queue[1:]
		t.depth -= len(batch)
		t.busy = len(batch)
		t.mu.Unlock()

		t.dst.Publish(batch...)

		t.mu.Lock()
		t.busy = 0
		t.forwarded += int64(len(batch))
		if t.degraded && t.depth == 0 {
			t.degraded = false // drained: resume streaming
		}
		t.cond.Broadcast()
	}
}

// Flush blocks until every batch enqueued before the call has been
// forwarded to the destination — the barrier a reader takes before
// snapshotting the consumer (e.g. tap.Flush() then correlator.Flush()).
// It does not wait for batches still blocked in concurrent Publish calls.
func (t *AsyncTap) Flush() {
	t.mu.Lock()
	for t.depth+t.busy > 0 {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// Close drains the queue, stops the worker, and detaches: Publish after
// Close forwards synchronously. Close is idempotent.
func (t *AsyncTap) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return
	}
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	t.wg.Wait()
}

// Depth returns the spans currently queued or being forwarded — the
// backlog an admission controller counts against its in-flight budget.
func (t *AsyncTap) Depth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.depth + t.busy
}

// Stats returns a snapshot of the tap's counters.
func (t *AsyncTap) Stats() AsyncTapStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return AsyncTapStats{
		Enqueued:     t.enqueued,
		Forwarded:    t.forwarded,
		Dropped:      t.dropped,
		Depth:        t.depth + t.busy,
		MaxDepth:     t.maxDepth,
		Degraded:     t.degraded,
		Degradations: t.degradations,
	}
}

// SetTapAsync attaches dst as the Memory's tap behind a bounded queue:
// publishes enqueue and return instead of running the consumer inline, and
// the returned AsyncTap carries the queue's stats and lifecycle (Close it
// when detaching — SetTap(nil) alone leaves the worker running). See
// AsyncTap for the shedding and ordering contract; the exactly-once and
// pointer-sharing contract of SetTap is unchanged.
func (m *Memory) SetTapAsync(dst Collector, opts TapOptions) *AsyncTap {
	t := NewAsyncTap(dst, opts)
	m.SetTap(t)
	return t
}

// Pressure is a consumer's coarse load state, reported through a
// LoadReporter so the ingest path can shed before the consumer's memory
// grows past its configured bounds.
type Pressure int

const (
	// PressureNominal: well inside every configured bound.
	PressureNominal Pressure = iota
	// PressureElevated: past half of a configured bound — worth surfacing
	// in stats, not yet worth shedding.
	PressureElevated
	// PressureOverloaded: a configured bound is reached; admission
	// control sheds new ingest until the consumer recovers.
	PressureOverloaded
)

// String names the pressure state for stats headers and logs.
func (p Pressure) String() string {
	switch p {
	case PressureNominal:
		return "nominal"
	case PressureElevated:
		return "elevated"
	case PressureOverloaded:
		return "overloaded"
	default:
		return fmt.Sprintf("Pressure(%d)", int(p))
	}
}

// LoadReporter is implemented by the component that owns the memory
// ingest feeds — core.StreamCorrelator for the streaming path — so
// degradation decisions are driven by its actual occupancy, not by proxy
// guesses at the server. Pressure must be safe for concurrent use.
type LoadReporter interface {
	Pressure() Pressure
}
