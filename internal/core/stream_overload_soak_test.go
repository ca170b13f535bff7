package core_test

import (
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xsp/internal/core"
	"xsp/internal/trace"
	"xsp/internal/workload"
)

// retryUntilShipped is the soak publishers' delivery loop: publish the
// batch and flush until the server accepts it, pacing on ErrBackoff / 429
// like a production client. Past the deadline it aborts (recording the
// failure) instead of hanging the suite on a livelock.
func retryUntilShipped(t *testing.T, col *trace.HTTPCollector, aborted *atomic.Bool, deadline time.Time, batch []*trace.Span) {
	col.Publish(batch...)
	for {
		if _, err := col.Flush(); err == nil {
			return
		}
		if time.Now().After(deadline) {
			if aborted.CompareAndSwap(false, true) {
				t.Errorf("publisher wedged: batch not accepted by %v — overload never recovered", deadline)
			}
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// The adversarial soak: 10x overdriven publishers against a small
// admission budget and a blocking tap, with nothing driving the shedding
// but the two in-flight budgets. Asserts the tentpole's three properties:
// (a) every live structure stays bounded — the correlator's live spans by
// a ceiling that does not grow with the stream, held by the Retain fold
// cadence, window chaining and the CorrRetain horizon alone — (b) the
// final correlated trace equals the batch oracle over all accepted spans
// — no corruption, no double-count via retried batches — and (c) the
// system recovers to normal behavior after the burst. Nothing folds or
// flushes the correlator while publishers run: shedding ends because the
// budgets drain by themselves. Run it at two XSP_SOAK_SPANS sizes to see
// the ceiling hold flat.
func TestOverloadSoakBlockPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: skipped in -short")
	}
	total := soakSpans(t) / 10
	const (
		publishers = 10
		batchSpans = 64
		tapQueue   = 256
		spanBudget = 512 // server in-flight span budget
		// liveBound is the correlator's live-span ceiling, whatever the
		// stream's length: peaks read 2.1k-2.6k at 20k and at 100k spans
		// fed, and nearly all 20k live without CorrRetain.
		liveBound = 3072
	)

	sc := core.NewStreamCorrelator(core.StreamOptions{
		Isolated:      true,
		ReorderWindow: 512,
		Retain:        1024,
		CorrRetain:    4096,
	})
	srv := trace.NewServer()
	srv.SetAdmission(trace.AdmissionPolicy{
		MaxInflightBytes: 8 << 20,
		MaxInflightSpans: spanBudget,
		RetryAfter:       time.Millisecond,
	})
	// The consumer is throttled (as a real correlator under CPU contention
	// would be), so the overdrive genuinely outruns it and admission has to
	// shed; the tap blocks, so no span is ever dropped on the way in.
	tap := srv.Tenant(trace.DefaultTenant).SetTapAsync(&slowCollector{dst: sc, delay: time.Millisecond},
		trace.TapOptions{Queue: tapQueue})
	defer tap.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The monitor only samples every bound the soak asserts.
	var mu sync.Mutex
	var maxLive, maxBuffered, maxPending, maxWindow int
	sample := func() {
		l := sc.Load()
		mu.Lock()
		maxLive = max(maxLive, l.LiveSpans)
		maxBuffered = max(maxBuffered, l.Buffered)
		maxPending = max(maxPending, l.PendingExecs)
		maxWindow = max(maxWindow, l.WindowSpans)
		mu.Unlock()
	}
	stop := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				sample()
			}
		}
	}()

	cols := make([]*trace.HTTPCollector, publishers)
	for p := range cols {
		cols[p] = trace.NewHTTPCollector(ts.URL)
		cols[p].SetRetryPolicy(trace.RetryPolicy{
			BaseDelay: 200 * time.Microsecond,
			MaxDelay:  5 * time.Millisecond,
			// MaxAttempts zero: never drop — exactly-once over every span.
		})
	}
	var aborted atomic.Bool
	deadline := time.Now().Add(2 * time.Minute)
	generated := workload.PublishOverdriven(workload.OverloadSpec{
		Publishers: publishers,
		SpansEach:  total / publishers,
		BatchSpans: batchSpans,
		Seed:       42,
	}, func(p int, batch []*trace.Span) {
		if aborted.Load() {
			return
		}
		retryUntilShipped(t, cols[p], &aborted, deadline, batch)
		sample()
	})
	close(stop)
	monWG.Wait()
	if aborted.Load() {
		t.Fatal("soak aborted on a wedged publisher")
	}

	// (a) Every structure held its bound.
	t.Logf("live spans peaked at %d of %d fed", maxLive, generated)
	if maxLive > liveBound {
		t.Fatalf("live spans peaked at %d of %d fed, ceiling is %d", maxLive, generated, liveBound)
	}
	if st := tap.Stats(); st.MaxDepth > tapQueue {
		t.Fatalf("tap queue peaked at %d, bound is %d", st.MaxDepth, tapQueue)
	}
	if maxBuffered > liveBound || maxPending > liveBound {
		t.Fatalf("reorder buffer peaked at %d, pending execs at %d — past the live ceiling %d",
			maxBuffered, maxPending, liveBound)
	}
	if maxWindow > 4096 {
		t.Fatalf("degraded window peaked at %d candidates, bound is 4096", maxWindow)
	}
	ost := srv.OverloadStats()
	if ost.ShedRequests == 0 {
		t.Fatal("overdriven run never shed a request — the soak is not overloading")
	}

	// (c) Recovery: the tap drains by itself, the in-flight state is empty,
	// and a fresh publisher is admitted first try — no fold, no Flush.
	tap.Flush()
	if ost := srv.OverloadStats(); ost.InflightBytes != 0 || ost.InflightSpans != 0 || ost.TapDepth != 0 {
		t.Fatalf("post-burst in-flight state not drained: %+v", ost)
	}
	probe := trace.NewHTTPCollector(ts.URL)
	probe.Publish(&trace.Span{ID: trace.NewSpanID(), Level: trace.LevelKernel, Name: "probe", Begin: 1 << 40, End: 1<<40 + 1})
	start := time.Now()
	if n, err := probe.Flush(); err != nil || n != 1 {
		t.Fatalf("post-burst probe = %d, %v — not admitted first try", n, err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("post-burst probe took %v — latency did not recover", d)
	}
	tap.Flush()
	sc.Flush()

	// (b) Exactly-once and stream-vs-batch equality over accepted spans.
	// With a blocking tap and retry-forever publishers, accepted means all.
	if got := srv.Received(); got != generated+1 {
		t.Fatalf("server accepted %d spans, generated %d and a probe — retried batches double-counted or lost", got, generated)
	}
	accepted := srv.Trace()
	if len(accepted.Spans) != generated+1 {
		t.Fatalf("store holds %d spans, want %d", len(accepted.Spans), generated+1)
	}
	seen := make(map[uint64]bool, generated)
	for _, s := range accepted.Spans {
		if seen[s.ID] {
			t.Fatalf("span %d stored twice — a retried batch re-published", s.ID)
		}
		seen[s.ID] = true
	}
	assertStreamMatchesBatch(t, sc, [][]*trace.Span{accepted.Spans})
}

// slowCollector throttles the tap's consumer, so an overdriven soak
// reliably fills the queue.
type slowCollector struct {
	dst   trace.Collector
	delay time.Duration
}

func (c *slowCollector) Publish(spans ...*trace.Span) {
	time.Sleep(c.delay)
	c.dst.Publish(spans...)
}
