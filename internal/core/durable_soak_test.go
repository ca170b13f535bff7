package core_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"xsp/internal/core"
	"xsp/internal/segio"
	"xsp/internal/trace"
	"xsp/internal/workload"
)

// TestDurableStreamSoak is the durability tentpole's endurance run: a
// sustained-pipelined stream (XSP_SOAK_SPANS long, 500k by default) fed
// through FeedLogged over a real directory store, with one full process
// restart — close, reopen, RecoverStream — in the middle, and a
// concurrent observer polling Stats/DurabilityErr the whole time the way
// a monitoring endpoint would. Meant for -race: the observer and the
// restart cross every lock the durable path takes. The flat-memory
// bounds of the RAM soak must survive the durable upgrade, and so must
// span conservation across the restart.
func TestDurableStreamSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: skipped in -short")
	}
	total := soakSpans(t)
	const perRep = 25_000

	fs, err := segio.DirFS(t.TempDir())
	if err != nil {
		t.Fatalf("dir fs: %v", err)
	}
	opts := core.StreamOptions{
		ReorderWindow: 48,
		Retain:        4_096,
		CorrRetain:    16_384,
	}.WithMaxWindowSpans(2_048)
	var store *segio.Store
	open := func() *core.StreamCorrelator {
		st, rec, err := segio.Open(fs, segio.Options{})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		if len(rec.Quarantined) != 0 {
			t.Fatalf("clean restart quarantined %v", rec.Quarantined)
		}
		store = st
		opts.Store = st
		sc, err := core.RecoverStream(opts, rec)
		if err != nil {
			t.Fatalf("recover stream: %v", err)
		}
		return sc
	}
	runtime.GC()
	var heapBefore runtime.MemStats
	runtime.ReadMemStats(&heapBefore)
	sc := open()

	// The observer races every feed, fold, and the restart below; under
	// -race it proves the durable surface holds its locks.
	var mu sync.Mutex // guards sc across the restart swap
	current := func() *core.StreamCorrelator {
		mu.Lock()
		defer mu.Unlock()
		return sc
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := current()
			_ = c.Stats()
			if err := c.DurabilityErr(); err != nil {
				return // main goroutine asserts; just stop hammering
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	fed, batchID := 0, uint64(0)
	restarted := false
	var maxLive, maxSegments, maxFiles int
	workload.Stream(workload.StreamingSpec{
		Trace:       workload.SyntheticSpec{Spans: perRep, Streams: 3, Seed: 1},
		BatchSize:   1_000,
		ReorderSkew: 48,
		Repeat:      (total + perRep - 1) / perRep,
		Seed:        9,
	}, func(b []*trace.Span) bool {
		if !restarted && fed >= total/2 {
			restarted = true
			if err := store.Close(); err != nil {
				t.Fatalf("close store mid-soak: %v", err)
			}
			mu.Lock()
			sc = open()
			mu.Unlock()
		}
		batchID++
		if err := sc.FeedLogged(batchID, b...); err != nil {
			t.Fatalf("batch %d not acked on a healthy disk: %v", batchID, err)
		}
		fed += len(b)
		st := sc.Stats()
		maxLive = max(maxLive, st.Live)
		maxSegments = max(maxSegments, st.Segments)
		maxFiles = max(maxFiles, store.Stats().Segments)
		return fed < total
	})
	close(stop)
	wg.Wait()

	sc.Flush()
	if err := sc.DurabilityErr(); err != nil {
		t.Fatalf("durability error latched on a healthy disk: %v", err)
	}
	if !restarted {
		t.Fatal("soak never restarted — not exercising recovery")
	}

	// The RAM soak's flat-memory story must hold with the store attached:
	// the ladder spills to files but the in-memory ladder and the on-disk
	// file count both stay logarithmic, not O(stream).
	if maxLive > 40_000 {
		t.Fatalf("live spans peaked at %d of %d fed — fold horizon stalling", maxLive, fed)
	}
	if maxSegments > 24 {
		t.Fatalf("checkpoint segments peaked at %d — geometric compaction not holding", maxSegments)
	}
	if maxFiles > 32 {
		t.Fatalf("segment files peaked at %d — compaction not dropping superseded files", maxFiles)
	}

	final := sc.Stats()
	if final.Live+final.Checkpointed != fed {
		t.Fatalf("conservation broken across restart: live %d + checkpointed %d != fed %d",
			final.Live, final.Checkpointed, fed)
	}

	// The byte bound, stricter than the RAM soak's 170: folded history is
	// read from its segment files, so what a durable stream retains per span
	// fed is the live tail's share and a directory of a fraction of a byte,
	// not the codec's ~110 bytes a span held on the heap beside the file.
	runtime.GC()
	var heapAfter runtime.MemStats
	runtime.ReadMemStats(&heapAfter)
	runtime.KeepAlive(sc)
	var retained uint64
	if heapAfter.HeapAlloc > heapBefore.HeapAlloc {
		retained = heapAfter.HeapAlloc - heapBefore.HeapAlloc
	}
	if perSpan := float64(retained) / float64(fed); perSpan > durableSoakBytesPerSpan {
		t.Fatalf("durable soak retains %.0f bytes per span fed (%d MiB for %d spans)", perSpan, retained>>20, fed)
	} else {
		t.Logf("durable soak retains %.0f bytes per span fed", perSpan)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}
}

// durableSoakBytesPerSpan bounds the heap a durable soak retains per span
// fed. With folded history held on the heap beside its files the soak read
// 99-116 at 500k-60k spans; read from the files, 8-29.
const durableSoakBytesPerSpan = 60
