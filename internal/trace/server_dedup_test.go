package trace

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// lostAckTransport forwards every request to the real transport but, for
// the first failN POSTs to /api/spans, discards the response and reports a
// transport error instead — the committed-but-unacknowledged case: the
// server processed the batch, the client never learned.
type lostAckTransport struct {
	base  http.RoundTripper
	failN int
}

func (t *lostAckTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	if r.URL.Path == "/api/spans" && t.failN > 0 {
		t.failN--
		resp.Body.Close()
		return nil, fmt.Errorf("simulated: 202 lost in transit")
	}
	return resp, nil
}

// The at-least-once hole, closed: a batch whose 202 was lost in transit
// re-ships on retry with the same batch id, the server recognizes it, and
// every span lands exactly once — Received and the aggregated trace both
// count it a single time.
func TestHTTPCollectorRetryAfterLostAckIsExactlyOnce(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	col := NewHTTPCollector(ts.URL)
	col.client = &http.Client{Transport: &lostAckTransport{base: http.DefaultTransport, failN: 1}}
	// Fake clock: each reading is a minute later, so the default retry
	// backoff never gates the immediate re-Flush this test drives.
	clock := time.Now()
	col.now = func() time.Time { clock = clock.Add(time.Minute); return clock }

	col.Publish(&Span{ID: 1, Level: LevelModel, Name: "predict", Begin: 0, End: 100})
	col.Publish(&Span{ID: 2, Level: LevelLayer, Name: "conv", Begin: 5, End: 50})
	if _, err := col.Flush(); err == nil {
		t.Fatal("Flush across a lost ack reported success")
	}
	// The server committed the batch even though the client saw failure.
	if srv.Tenant(DefaultTenant).Received() != 2 {
		t.Fatalf("server received %d spans from the unacknowledged flush, want 2", srv.Tenant(DefaultTenant).Received())
	}

	// Spans published between the failure and the retry ship as their own
	// batch, after the retried one.
	col.Publish(&Span{ID: 3, Level: LevelKernel, Name: "k", Begin: 6, End: 7})
	n, err := col.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("retry Flush shipped %d spans, want 3 (retried batch + new batch)", n)
	}

	if srv.Tenant(DefaultTenant).Received() != 3 {
		t.Fatalf("server received %d spans after the retry, want exactly 3", srv.Tenant(DefaultTenant).Received())
	}
	tr := srv.Tenant(DefaultTenant).View().Trace()
	if len(tr.Spans) != 3 {
		t.Fatalf("server aggregated %d spans, want 3 — the retried batch must not duplicate", len(tr.Spans))
	}
	seen := map[uint64]bool{}
	for _, s := range tr.Spans {
		if seen[s.ID] {
			t.Fatalf("span %d aggregated twice across the retry", s.ID)
		}
		seen[s.ID] = true
	}
}

// The dedup is per batch id, not per connection: a raw re-POST of an
// already-committed batch id is acknowledged (202, flagged duplicate) and
// publishes nothing, while a batch with a fresh id publishes normally and
// one with no id keeps the pre-dedup at-least-once behavior.
func TestServerSpanBatchIdempotency(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(batchID string, span *Span) *http.Response {
		t.Helper()
		var body bytes.Buffer
		if err := (&Trace{Spans: []*Span{span}}).EncodeJSON(&body); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/spans", &body)
		if err != nil {
			t.Fatal(err)
		}
		if batchID != "" {
			req.Header.Set(batchIDHeader, batchID)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := post("ab12", &Span{ID: 1, Name: "a"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d", resp.StatusCode)
	}
	resp := post("ab12", &Span{ID: 1, Name: "a"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate POST = %d, want 202", resp.StatusCode)
	}
	if resp.Header.Get("X-Duplicate-Batch") != "1" {
		t.Fatal("duplicate POST not flagged as duplicate")
	}
	post("cd34", &Span{ID: 2, Name: "b"})
	post("", &Span{ID: 3, Name: "c"})
	post("", &Span{ID: 3, Name: "c"}) // no id: at-least-once, lands twice

	if srv.Tenant(DefaultTenant).Received() != 4 {
		t.Fatalf("Received = %d, want 4 (dup batch skipped, id-less dup counted)", srv.Tenant(DefaultTenant).Received())
	}

	// A malformed batch id is rejected outright.
	if resp := post("not-hex", &Span{ID: 4, Name: "d"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch id POST = %d, want 400", resp.StatusCode)
	}

	// Reset clears the remembered ids with the aggregation they guarded.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/reset", nil)
	rr, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if resp := post("ab12", &Span{ID: 1, Name: "a"}); resp.Header.Get("X-Duplicate-Batch") != "" {
		t.Fatal("batch id survived /api/reset")
	}
	if srv.Tenant(DefaultTenant).Received() != 1 {
		t.Fatalf("post-reset Received = %d, want 1", srv.Tenant(DefaultTenant).Received())
	}
}

// The dedup memory is bounded: ids age out FIFO once the cap is passed.
// claimBatch is also the atomic check-and-insert, and distinguishes a
// commit still in flight from one that finished.
func TestServerBatchDedupMemoryBounded(t *testing.T) {
	srv := NewServer()
	tn := srv.Tenant(DefaultTenant)
	for i := 0; i < DedupWindow+10; i++ {
		id := uint64(i + 1)
		if got := tn.claimBatch(id); got != batchClaimed {
			t.Fatalf("fresh batch id %d: claim = %v", id, got)
		}
		tn.commitBatch(id)
	}
	if got := len(tn.seenBatch); got != DedupWindow {
		t.Fatalf("remembered %d batch ids, cap is %d", got, DedupWindow)
	}
	if got := tn.claimBatch(uint64(DedupWindow + 10)); got != batchCommitted {
		t.Fatalf("committed live id: claim = %v, want committed", got)
	}
	if got := tn.claimBatch(1); got != batchClaimed {
		t.Fatalf("oldest batch id not evicted past the cap: claim = %v", got)
	}
	// Id 1 is now claimed but not committed: a concurrent retry must be
	// told it is in flight, not acknowledged as a duplicate.
	if got := tn.claimBatch(1); got != batchInFlight {
		t.Fatalf("mid-commit id: claim = %v, want in-flight", got)
	}
	tn.unclaimBatch(1) // never committed: a retry must claim it again
	if got := tn.claimBatch(1); got != batchClaimed {
		t.Fatalf("unclaimed batch id still held: claim = %v", got)
	}
}

// An id claimed but not yet committed — a batch mid-decode — must survive
// a flood of newer ids past the FIFO cap: evicting it would let a
// concurrent retry of the same batch re-claim the id and publish twice.
// An in-flight id reaching the eviction head is rotated to the back
// instead of evicted, so the memory bound holds (eviction proceeds past
// it) without ever forgetting a claim whose outcome is still unknown.
func TestServerDedupFIFODoesNotEvictInflightClaims(t *testing.T) {
	srv := NewServer()
	tn := srv.Tenant(DefaultTenant)
	const inflight = uint64(1)
	if got := tn.claimBatch(inflight); got != batchClaimed {
		t.Fatalf("fresh claim = %v", got)
	}

	// Flood: twice the cap in newer, committed batches.
	for i := 0; i < 2*DedupWindow; i++ {
		id := uint64(1000 + i)
		if got := tn.claimBatch(id); got != batchClaimed {
			t.Fatalf("flood id %d: claim = %v", id, got)
		}
		tn.commitBatch(id)
	}

	// The in-flight id held its claim through the flood: a retry is told
	// to come back, not handed a fresh claim (which would double-publish).
	if got := tn.claimBatch(inflight); got != batchInFlight {
		t.Fatalf("in-flight id after flood: claim = %v, want in-flight", got)
	}
	// The held claim must not break the memory bound: the order FIFO
	// holds at most the cap plus the single in-flight id.
	if got := len(tn.batchOrder); got > DedupWindow+1 {
		t.Fatalf("FIFO grew to %d entries behind one in-flight head, cap %d", got, DedupWindow)
	}

	// Once the claim settles, it is evictable like any committed id.
	tn.commitBatch(inflight)
	if got := tn.claimBatch(inflight); got != batchCommitted {
		t.Fatalf("committed id: claim = %v", got)
	}
	for i := 0; i < DedupWindow; i++ {
		id := uint64(100_000 + i)
		tn.claimBatch(id)
		tn.commitBatch(id)
	}
	if got := tn.claimBatch(inflight); got != batchClaimed {
		t.Fatalf("settled id not evicted after the cap re-passed it: claim = %v", got)
	}
	if got := len(tn.seenBatch); got != DedupWindow {
		t.Fatalf("remembered %d ids after settling, cap is %d", got, DedupWindow)
	}
}
