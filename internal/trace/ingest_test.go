package trace

import (
	"runtime"
	"sync"
	"testing"
)

// Every span published by concurrent tracers must land in the aggregated
// trace exactly once, whichever shard it arrived through.
func TestPublishParallelLosesNothing(t *testing.T) {
	const publishers = 16
	const each = 500
	mem := NewMemory()
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := NewTracer("p", LevelKernel, mem)
			for i := 0; i < each; i++ {
				s := tr.StartSpan("k", 0)
				tr.FinishSpan(s, 1)
			}
		}()
	}
	wg.Wait()
	if mem.Len() != publishers*each {
		t.Fatalf("Len = %d, want %d", mem.Len(), publishers*each)
	}
	got := mem.Trace()
	if len(got.Spans) != publishers*each {
		t.Fatalf("Trace has %d spans, want %d", len(got.Spans), publishers*each)
	}
	seen := make(map[uint64]bool, len(got.Spans))
	for _, s := range got.Spans {
		if seen[s.ID] {
			t.Fatalf("span %d aggregated twice", s.ID)
		}
		seen[s.ID] = true
	}
}

// Trace and Len must be safe to call while publishers are running: they
// see some prefix of the in-flight spans, never corrupt state. (The race
// detector is the real assertion here.)
func TestTraceWhilePublishing(t *testing.T) {
	// Publishers pause at a span cap: every Trace call merges all that was
	// published, so on a loaded box unthrottled publishers outran the 50
	// snapshots below without bound (the test binary reached 16 GB).
	const maxSpans = 200_000
	mem := NewMemory()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := NewTracer("p", LevelLayer, mem)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if mem.Len() >= maxSpans {
					runtime.Gosched()
					continue
				}
				tr.PublishCompleted(&Span{ID: NewSpanID(), Level: LevelLayer, Begin: 0, End: 1})
			}
		}()
	}
	for i := 0; i < 50; i++ {
		tr := mem.Trace()
		if len(tr.Spans) > mem.Len() {
			// Len was read after Trace snapshotted, so it can only have
			// grown; a smaller Len would mean lost spans.
			t.Fatalf("Trace sees %d spans but Len = %d", len(tr.Spans), mem.Len())
		}
	}
	close(stop)
	wg.Wait()
}

// Dedicated shards obtained via Memory.Shard aggregate alongside hashed
// Publish calls, and survive Reset for reuse.
func TestDedicatedShardAggregatesAndSurvivesReset(t *testing.T) {
	mem := NewMemory()
	sh := mem.Shard()
	sh.Publish(&Span{ID: 1, Begin: 5})
	mem.Publish(&Span{ID: 2, Begin: 3})
	if mem.Len() != 2 {
		t.Fatalf("Len = %d, want 2", mem.Len())
	}
	tr := mem.Trace()
	if len(tr.Spans) != 2 || tr.Spans[0].ID != 2 || tr.Spans[1].ID != 1 {
		t.Fatalf("merged trace wrong: %+v", tr.Spans)
	}
	mem.Reset()
	if mem.Len() != 0 {
		t.Fatal("Reset did not clear shards")
	}
	sh.Publish(&Span{ID: 3})
	if mem.Len() != 1 || len(mem.Trace().Spans) != 1 {
		t.Fatal("dedicated shard unusable after Reset")
	}
}

// Closing a tracer releases its dedicated shard back to the Memory: the
// buffered spans stay visible, the shard is unregistered, and later
// publishes still arrive (forwarded through the hashed shards).
func TestTracerCloseReleasesShard(t *testing.T) {
	mem := NewMemory()
	tr := NewTracer("p", LevelLayer, mem)
	s := tr.StartSpan("a", 0)
	tr.FinishSpan(s, 1)
	if got := len(mem.dedicated); got != 1 {
		t.Fatalf("dedicated shards before Close = %d, want 1", got)
	}
	tr.Close()
	if got := len(mem.dedicated); got != 0 {
		t.Fatalf("dedicated shards after Close = %d, want 0", got)
	}
	if mem.Len() != 1 || mem.Trace().Spans[0].Name != "a" {
		t.Fatal("spans lost by Close")
	}
	tr.PublishCompleted(&Span{ID: NewSpanID(), Name: "b"})
	if mem.Len() != 2 {
		t.Fatal("publish after Close dropped the span")
	}
	tr.Close() // idempotent
	if mem.Len() != 2 {
		t.Fatal("second Close changed the collector")
	}
}

// profileOnce-style usage: many short-lived tracers against one long-lived
// collector must not accumulate dedicated shards.
func TestShortLivedTracersDoNotAccumulateShards(t *testing.T) {
	mem := NewMemory()
	for run := 0; run < 100; run++ {
		tr := NewTracer("run", LevelModel, mem)
		tr.PublishCompleted(&Span{ID: NewSpanID()})
		tr.Close()
	}
	if got := len(mem.dedicated); got != 0 {
		t.Fatalf("dedicated shards after 100 runs = %d, want 0", got)
	}
	if mem.Len() != 100 {
		t.Fatalf("Len = %d, want 100", mem.Len())
	}
}

// Trace may run concurrently with tracers closing: each snapshot sees the
// moving spans exactly once (in the dedicated shard or the public one),
// and nothing is lost or duplicated overall.
func TestTraceConcurrentWithClose(t *testing.T) {
	const publishers = 8
	const runs = 50
	mem := NewMemory()
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				tr := NewTracer("p", LevelLayer, mem)
				tr.PublishCompleted(&Span{ID: NewSpanID(), Begin: 0, End: 1})
				tr.Close()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for looping := true; looping; {
		select {
		case <-done:
			looping = false
		default:
		}
		snap := mem.Trace()
		seen := make(map[uint64]bool, len(snap.Spans))
		for _, s := range snap.Spans {
			if seen[s.ID] {
				t.Fatalf("span %d appears twice in a snapshot during Close", s.ID)
			}
			seen[s.ID] = true
		}
	}
	if mem.Len() != publishers*runs {
		t.Fatalf("Len after all Closes = %d, want %d", mem.Len(), publishers*runs)
	}
}

// The Publish-after-Close forwarding path under concurrency: shards close
// while their publisher keeps publishing (forwarded through the hashed
// shards) and while snapshots run. No snapshot may see a span twice, and
// once everything drains, every published span is aggregated exactly
// once. The -race CI job is the other half of this assertion.
func TestPublishCloseSnapshotConcurrently(t *testing.T) {
	const workers = 8
	const perWorker = 400
	mem := NewMemory()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, snap := range []*Trace{mem.Trace(), mem.SnapshotTrace()} {
				seen := make(map[uint64]bool, len(snap.Spans))
				for _, s := range snap.Spans {
					if seen[s.ID] {
						t.Errorf("span %d seen twice in one snapshot", s.ID)
						return
					}
					seen[s.ID] = true
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := mem.Shard()
			for i := 0; i < perWorker; i++ {
				if i == perWorker/2 {
					// Close races the remaining Publishes on the same
					// shard: spans published before it move to the hashed
					// shards, spans after it forward.
					wg.Add(1)
					go func() {
						defer wg.Done()
						sh.Close()
					}()
				}
				sh.Publish(&Span{ID: NewSpanID(), Level: LevelKernel, Begin: 0, End: 1})
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := mem.Len(); got != workers*perWorker {
		t.Fatalf("Len = %d, want %d: spans lost or duplicated across Close", got, workers*perWorker)
	}
	final := mem.Trace()
	seen := make(map[uint64]bool, len(final.Spans))
	for _, s := range final.Spans {
		if seen[s.ID] {
			t.Fatalf("span %d aggregated twice after all Closes", s.ID)
		}
		seen[s.ID] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("final trace has %d distinct spans, want %d", len(seen), workers*perWorker)
	}
}

// Memory.Trace documents that the returned trace shares span pointers with
// the collector: an in-place mutation (what core.Correlate does to
// ParentID) must be visible to later Trace calls.
func TestTraceSharesSpanPointers(t *testing.T) {
	mem := NewMemory()
	mem.Publish(&Span{ID: 1, Name: "a"})
	first := mem.Trace()
	first.Spans[0].ParentID = 99
	second := mem.Trace()
	if second.Spans[0].ParentID != 99 {
		t.Fatal("Trace does not share span pointers: ParentID edit lost")
	}
	if first.Spans[0] != second.Spans[0] {
		t.Fatal("consecutive Trace calls returned different span pointers")
	}
}

// SnapshotTrace is the isolated counterpart: mutations on the snapshot
// must not leak back into the collector.
func TestSnapshotTraceIsolated(t *testing.T) {
	mem := NewMemory()
	orig := &Span{ID: 1, Name: "a"}
	orig.SetTag("k", "v")
	mem.Publish(orig)
	snap := mem.SnapshotTrace()
	if len(snap.Spans) != 1 || snap.Spans[0] == orig {
		t.Fatal("SnapshotTrace did not clone")
	}
	snap.Spans[0].ParentID = 99
	snap.Spans[0].SetTag("k", "changed")
	live := mem.Trace().Spans[0]
	if live.ParentID != 0 || live.Tag("k") != "v" {
		t.Fatal("snapshot mutation leaked into the collector")
	}
}
