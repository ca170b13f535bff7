package trace

import "sync"

// TapOptions configures an AsyncTap.
type TapOptions struct {
	// Queue bounds the tap's backlog, in spans: batches enqueue until the
	// spans waiting to be forwarded would exceed it, and then Publish waits
	// for room. Zero applies DefaultTapQueue. An oversized batch (bigger than
	// the whole bound) is admitted alone when the queue is empty, so no batch
	// can wedge the tap forever.
	Queue int

	Policy int // ignored; see benchapi.go
}

// DefaultTapQueue is the queue bound applied when TapOptions.Queue is zero.
const DefaultTapQueue = 65536

// AsyncTap decouples the publish path from a tap consumer through a
// bounded queue: Publish enqueues the batch — a short critical section,
// no consumer work — and a single worker goroutine forwards batches to
// the destination collector in arrival order. A full queue backpressures
// the publisher: Publish waits for room, so a slow consumer neither grows
// an unbounded backlog nor loses a batch. Behind an HTTP handler that wait
// fills the admission budgets, and admission control sheds at the edge
// (see AdmissionPolicy).
//
// AsyncTap implements Collector, so it stands wherever a synchronous
// collector would: xsp-server's RAM tenants put one in front of their
// correlator. It forwards the same span pointers and the same batch slices
// it was given, and batches reach the destination exactly once, in the
// order their Publish calls enqueued them. Close the tap when detaching it,
// so the worker exits.
type AsyncTap struct {
	dst  Collector
	max  int
	wg   sync.WaitGroup
	mu   sync.Mutex
	cond *sync.Cond // broadcast: queue state changed (room, work, or close)

	queue  [][]*Span
	depth  int // spans enqueued, not yet handed to dst
	busy   int // spans handed to dst, Publish not yet returned
	closed bool

	enqueued  int64 // spans accepted into the queue, ever
	forwarded int64 // spans delivered to dst, ever
	maxDepth  int
}

// AsyncTapStats is a point-in-time snapshot of an AsyncTap's progress
// counters.
type AsyncTapStats struct {
	Enqueued  int64 // spans accepted into the queue, ever
	Forwarded int64 // spans delivered to the destination, ever
	Depth     int   // spans currently queued or being forwarded
	MaxDepth  int   // high-water mark of Depth
	Dropped   int64 `json:"-"` // always zero; see benchapi.go
}

// NewAsyncTap starts an async tap forwarding to dst. Close it when done.
func NewAsyncTap(dst Collector, opts TapOptions) *AsyncTap {
	if opts.Queue <= 0 {
		opts.Queue = DefaultTapQueue
	}
	t := &AsyncTap{dst: dst, max: opts.Queue}
	t.cond = sync.NewCond(&t.mu)
	t.wg.Add(1)
	go t.run()
	return t
}

// Publish enqueues the batch for the worker, waiting while the queue is
// full. After Close, batches forward synchronously to the destination — a
// tap being detached must not silently eat a final straggling publish.
func (t *AsyncTap) Publish(spans ...*Span) {
	n := len(spans)
	if n == 0 {
		return
	}
	t.mu.Lock()
	// Wait for room — an oversized batch is admitted alone.
	for !t.closed && t.depth+t.busy+n > t.max && t.depth+t.busy > 0 {
		t.cond.Wait()
	}
	if t.closed {
		t.mu.Unlock()
		t.dst.Publish(spans...)
		return
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
		Enqueued:  t.enqueued,
		Forwarded: t.forwarded,
		Depth:     t.depth + t.busy,
		MaxDepth:  t.maxDepth,
	}
}
