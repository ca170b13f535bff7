package trace

import (
	"sync"
	"testing"
	"time"

	"xsp/internal/vclock"
)

// recordingCollector records every batch it is handed, optionally gated so
// a test can hold the tap worker mid-forward and fill the queue behind it.
type recordingCollector struct {
	mu      sync.Mutex
	batches [][]uint64 // span ids, per batch, in arrival order
	gate    chan struct{}
}

func (c *recordingCollector) Publish(spans ...*Span) {
	if c.gate != nil {
		<-c.gate
	}
	ids := make([]uint64, len(spans))
	for i, s := range spans {
		ids[i] = s.ID
	}
	c.mu.Lock()
	c.batches = append(c.batches, ids)
	c.mu.Unlock()
}

func (c *recordingCollector) snapshot() [][]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]uint64, len(c.batches))
	copy(out, c.batches)
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func span(id uint64) *Span {
	return &Span{ID: id, Level: LevelKernel, Name: "k", Begin: vclock.Time(id), End: vclock.Time(id + 1)}
}

// Batches forward to the destination exactly once, in enqueue order, with
// batch boundaries preserved.
func TestAsyncTapForwardsExactlyOnceInOrder(t *testing.T) {
	dst := &recordingCollector{}
	tap := NewAsyncTap(dst, TapOptions{Queue: 8})
	defer tap.Close()

	var want [][]uint64
	id := uint64(1)
	for b := 0; b < 100; b++ {
		n := b%3 + 1
		batch := make([]*Span, n)
		ids := make([]uint64, n)
		for i := range batch {
			batch[i] = span(id)
			ids[i] = id
			id++
		}
		want = append(want, ids)
		tap.Publish(batch...)
	}
	tap.Flush()

	got := dst.snapshot()
	if len(got) != len(want) {
		t.Fatalf("destination saw %d batches, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("batch %d: %d spans, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("batch %d span %d: id %d, want %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	st := tap.Stats()
	if st.Enqueued != int64(id-1) || st.Forwarded != int64(id-1) {
		t.Fatalf("stats = %+v, want %d enqueued and forwarded", st, id-1)
	}
}

// Concurrent publishers against a small queue: every span lands
// exactly once, and the queue's high-water mark respects the bound.
func TestAsyncTapConcurrentPublishExactlyOnce(t *testing.T) {
	dst := &recordingCollector{}
	const bound = 4
	tap := NewAsyncTap(dst, TapOptions{Queue: bound})
	defer tap.Close()

	const publishers, each = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tap.Publish(span(uint64(p*each + i + 1)))
			}
		}(p)
	}
	wg.Wait()
	tap.Flush()

	seen := map[uint64]int{}
	for _, b := range dst.snapshot() {
		for _, id := range b {
			seen[id]++
		}
	}
	if len(seen) != publishers*each {
		t.Fatalf("destination saw %d distinct spans, want %d", len(seen), publishers*each)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("span %d forwarded %d times", id, n)
		}
	}
	if st := tap.Stats(); st.MaxDepth > bound {
		t.Fatalf("queue high-water mark %d exceeded bound %d", st.MaxDepth, bound)
	}
}

// A Publish against a full queue waits for room instead of dropping or
// growing the backlog.
func TestAsyncTapBlockPolicyBackpressures(t *testing.T) {
	dst := &recordingCollector{gate: make(chan struct{})}
	tap := NewAsyncTap(dst, TapOptions{Queue: 2})
	defer close(dst.gate)
	defer tap.Close()

	tap.Publish(span(1)) // worker pops it and blocks on the gate
	tap.Publish(span(2)) // queued
	waitFor(t, "queue to fill", func() bool { return tap.Depth() == 2 })

	done := make(chan struct{})
	go func() {
		tap.Publish(span(3)) // full: must block
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Publish returned against a full queue")
	case <-time.After(20 * time.Millisecond):
	}

	dst.gate <- struct{}{} // release span 1; room opens
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Publish not released when the queue drained")
	}
	dst.gate <- struct{}{}
	dst.gate <- struct{}{}
	tap.Flush()
	if got := dst.snapshot(); len(got) != 3 {
		t.Fatalf("destination saw %d batches, want 3", len(got))
	}
}

// A batch bigger than the whole queue bound is admitted when it is alone,
// so it cannot wedge the tap forever.
func TestAsyncTapOversizedBatchAdmittedAlone(t *testing.T) {
	dst := &recordingCollector{}
	tap := NewAsyncTap(dst, TapOptions{Queue: 4})
	defer tap.Close()

	batch := make([]*Span, 10)
	for i := range batch {
		batch[i] = span(uint64(i + 1))
	}
	tap.Publish(batch...)
	tap.Flush()
	if st := tap.Stats(); st.Forwarded != 10 {
		t.Fatalf("oversized batch: %+v, want 10 forwarded", st)
	}
}

// Close drains the queue, and a Publish after Close forwards synchronously
// — a detached tap must not silently eat a straggling publish.
func TestAsyncTapCloseDrainsThenForwardsSynchronously(t *testing.T) {
	dst := &recordingCollector{}
	tap := NewAsyncTap(dst, TapOptions{Queue: 16})
	for i := 1; i <= 5; i++ {
		tap.Publish(span(uint64(i)))
	}
	tap.Close()
	tap.Close() // idempotent

	if got := dst.snapshot(); len(got) != 5 {
		t.Fatalf("Close drained %d batches, want 5", len(got))
	}
	tap.Publish(span(6))
	if got := dst.snapshot(); len(got) != 6 {
		t.Fatalf("post-Close Publish did not forward synchronously: %d batches", len(got))
	}
}

// A Memory-mode tenant's SetTapAsync attaches the async tap with the tap
// contract intact: spans published through the tenant's collector land in
// its Memory and reach the destination exactly once.
func TestMemorySetTapAsync(t *testing.T) {
	tn := NewServer().Tenant(DefaultTenant)
	dst := &recordingCollector{}
	tap := tn.SetTapAsync(dst, TapOptions{Queue: 8})
	defer tap.Close()

	for i := 1; i <= 20; i++ {
		tn.Collector().Publish(span(uint64(i)))
	}
	tap.Flush()
	seen := map[uint64]bool{}
	for _, b := range dst.snapshot() {
		for _, id := range b {
			if seen[id] {
				t.Fatalf("span %d forwarded twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 20 {
		t.Fatalf("destination saw %d spans, want 20", len(seen))
	}
	if n := len(tn.View().Trace().Spans); n != 20 {
		t.Fatalf("store holds %d spans, want 20 — the tap must not divert", n)
	}
}
