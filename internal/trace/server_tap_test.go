package trace

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"xsp/internal/vclock"
)

// Zero-ID spans POSTed to /api/spans must not all collapse onto one ID:
// the server assigns them fresh IDs at ingress.
func TestHandleSpansReassignsZeroIDs(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	col := NewHTTPCollector(ts.URL)
	const n = 20
	for i := 0; i < n; i++ {
		col.Publish(&Span{Level: LevelKernel, Name: "anon", Begin: vclock.Time(i), End: vclock.Time(i + 1)})
	}
	// Client IDs sit in the low range the server's own counter also walks:
	// assigned IDs must come from a disjoint space, not just "the next
	// counter value".
	for id := uint64(1); id <= 3; id++ {
		col.Publish(&Span{ID: id, Level: LevelLayer, Name: "low-id", Begin: 0, End: 50})
	}
	col.Publish(&Span{ID: 424242, Level: LevelModel, Name: "keeps-id", Begin: 0, End: 100})
	if _, err := col.Flush(); err != nil {
		t.Fatal(err)
	}

	got := srv.Tenant(DefaultTenant).View().Trace()
	if len(got.Spans) != n+4 {
		t.Fatalf("aggregated %d spans, want %d", len(got.Spans), n+4)
	}
	seen := make(map[uint64]bool)
	for _, s := range got.Spans {
		if s.ID == 0 {
			t.Fatal("zero-ID span survived ingress")
		}
		if seen[s.ID] {
			t.Fatalf("ID %d assigned twice", s.ID)
		}
		seen[s.ID] = true
		if s.Name == "anon" && s.ID&serverAssignedIDBit == 0 {
			t.Fatalf("assigned ID %d outside the server-reserved space", s.ID)
		}
		if s.Name != "anon" && s.ID&serverAssignedIDBit != 0 {
			t.Fatalf("client ID %d rewritten", s.ID)
		}
	}
	if !seen[424242] {
		t.Fatal("a nonzero client ID was rewritten")
	}
	// Every reassigned span is individually addressable.
	if sp := got.Find("anon"); sp == nil || got.SpansByID()[sp.ID] != sp {
		t.Fatal("reassigned span not reachable by ID")
	}
}

// countingTap records what the server forwards to its tap.
type countingTap struct {
	mu    sync.Mutex
	spans []*Span
}

func (c *countingTap) Publish(spans ...*Span) {
	c.mu.Lock()
	c.spans = append(c.spans, spans...)
	c.mu.Unlock()
}

// A tap registered with SetTap sees exactly the spans accepted over HTTP,
// post ID assignment; detaching stops the forwarding.
func TestServerTapSeesAcceptedSpans(t *testing.T) {
	srv := NewServer()
	tap := &countingTap{}
	srv.Tenant(DefaultTenant).SetTap(tap)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	col := NewHTTPCollector(ts.URL)
	col.Publish(&Span{ID: 7, Level: LevelModel, Name: "m", Begin: 0, End: 10})
	col.Publish(&Span{Level: LevelLayer, Name: "l", Begin: 1, End: 5})
	if _, err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(tap.spans) != 2 {
		t.Fatalf("tap saw %d spans, want 2", len(tap.spans))
	}
	for _, s := range tap.spans {
		if s.ID == 0 {
			t.Fatal("tap saw a span before ID assignment")
		}
	}

	srv.Tenant(DefaultTenant).SetTap(nil)
	col.Publish(&Span{ID: 9, Level: LevelModel, Name: "after", Begin: 20, End: 30})
	if _, err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(tap.spans) != 2 {
		t.Fatal("detached tap still receives spans")
	}
	if srv.Tenant(DefaultTenant).Received() != 3 {
		t.Fatalf("received %d, want 3", srv.Tenant(DefaultTenant).Received())
	}
}

// ServerTenant.SetTap rides the Memory-level tap, so in-process publishers into
// Collector() reach the tap too — not just the HTTP ingest path.
func TestServerTapSeesInProcessPublishes(t *testing.T) {
	srv := NewServer()
	tap := &countingTap{}
	srv.Tenant(DefaultTenant).SetTap(tap)

	tr := NewTracer("inproc", LevelModel, srv.Tenant(DefaultTenant).Collector())
	sp := tr.StartSpan("m", 0)
	tr.FinishSpan(sp, 10)
	srv.Tenant(DefaultTenant).Collector().Publish(&Span{ID: NewSpanID(), Level: LevelLayer, Name: "l", Begin: 1, End: 5})

	if len(tap.spans) != 2 {
		t.Fatalf("tap saw %d in-process spans, want 2", len(tap.spans))
	}
	if srv.Tenant(DefaultTenant).Received() != 0 {
		t.Fatalf("in-process publishes counted as received: %d", srv.Tenant(DefaultTenant).Received())
	}
}

// /api/reset zeroes the received counter along with the collector, so
// post-reset ingest accounting starts from zero.
func TestServerResetClearsReceived(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	col := NewHTTPCollector(ts.URL)
	col.Publish(&Span{ID: 1, Level: LevelModel, Name: "a", Begin: 0, End: 10})
	col.Publish(&Span{ID: 2, Level: LevelLayer, Name: "b", Begin: 1, End: 5})
	if _, err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	if srv.Tenant(DefaultTenant).Received() != 2 {
		t.Fatalf("received %d before reset, want 2", srv.Tenant(DefaultTenant).Received())
	}

	resp, err := http.Post(ts.URL+"/api/reset", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("reset status %s", resp.Status)
	}
	if srv.Tenant(DefaultTenant).Received() != 0 {
		t.Fatalf("received %d after reset, want 0", srv.Tenant(DefaultTenant).Received())
	}

	col.Publish(&Span{ID: 3, Level: LevelModel, Name: "c", Begin: 20, End: 30})
	if _, err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	if srv.Tenant(DefaultTenant).Received() != 1 {
		t.Fatalf("received %d after post-reset publish, want 1", srv.Tenant(DefaultTenant).Received())
	}
	if got := len(srv.Tenant(DefaultTenant).View().Trace().Spans); got != 1 {
		t.Fatalf("trace holds %d spans after reset+publish, want 1", got)
	}
}

// A failed POST must not lose the batch: Flush re-buffers it, and the next
// Flush ships it — ahead of spans published in the meantime.
func TestHTTPCollectorFlushRebuffersOnError(t *testing.T) {
	srv := NewServer()
	failures := 1
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/spans" && failures > 0 {
			failures--
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	col := NewHTTPCollector(ts.URL)
	// Fake clock: each reading is a minute later, so the default retry
	// backoff never gates the immediate re-Flush this test drives.
	clock := time.Now()
	col.now = func() time.Time { clock = clock.Add(time.Minute); return clock }
	col.Publish(&Span{ID: 11, Level: LevelModel, Name: "first", Begin: 0, End: 10})
	col.Publish(&Span{ID: 12, Level: LevelLayer, Name: "second", Begin: 1, End: 5})
	if _, err := col.Flush(); err == nil {
		t.Fatal("Flush against a failing server reported success")
	}
	if srv.Tenant(DefaultTenant).Received() != 0 {
		t.Fatalf("server received %d spans from the failed flush", srv.Tenant(DefaultTenant).Received())
	}

	// Publishes between the failure and the retry ship in the same batch,
	// after the re-buffered spans.
	col.Publish(&Span{ID: 13, Level: LevelKernel, Name: "third", Begin: 2, End: 3})
	n, err := col.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("retry shipped %d spans, want 3", n)
	}
	tr := srv.Tenant(DefaultTenant).View().Trace()
	if len(tr.Spans) != 3 {
		t.Fatalf("server aggregated %d spans, want 3", len(tr.Spans))
	}
	for _, name := range []string{"first", "second", "third"} {
		if tr.Find(name) == nil {
			t.Fatalf("span %q lost across the retry", name)
		}
	}
}
