package trace

import (
	"runtime"
	"sync"
	"testing"
)

// Every span published by concurrent tracers must land in the aggregated
// trace exactly once.
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
