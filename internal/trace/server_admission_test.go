package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func encodeSpans(t *testing.T, spans ...*Span) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := (&Trace{Spans: spans}).EncodeJSON(&body); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// postSpans drives a span POST straight through ServeHTTP (no network), so
// tests can control ContentLength and hold request bodies open.
func postSpans(srv *Server, body io.Reader, contentLength int64, batchID string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/api/spans", body)
	req.ContentLength = contentLength
	if batchID != "" {
		req.Header.Set(batchIDHeader, batchID)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// The byte budget: a request whose Content-Length would push the in-flight
// bytes over MaxInflightBytes is shed with 429 and the overload headers,
// while the request holding the budget completes normally and the budget
// frees behind it.
func TestServerAdmissionByteBudget(t *testing.T) {
	srv := NewServer()
	srv.SetAdmission(AdmissionPolicy{MaxInflightBytes: 1000, RetryAfter: 50 * time.Millisecond})

	// Hold one 800-byte request in flight: its Content-Length reserves the
	// budget before the body arrives.
	pr, pw := io.Pipe()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postSpans(srv, pr, 800, "") }()
	waitFor(t, "first request to reserve its bytes", func() bool {
		return srv.OverloadStats().InflightBytes == 800
	})

	// A second 800-byte request overflows the 1000-byte budget: shed.
	rec := postSpans(srv, bytes.NewReader(encodeSpans(t, span(1))), 800, "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget POST = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "0.05" {
		t.Fatalf("429 Retry-After = %q, want 0.05", rec.Header().Get("Retry-After"))
	}
	if rec.Header().Get("X-Shed-Requests") != "1" {
		t.Fatalf("X-Shed-Requests = %q, want 1", rec.Header().Get("X-Shed-Requests"))
	}

	// The held request completes (its body arrives well under its
	// reservation) and releases the budget.
	if _, err := pw.Write(encodeSpans(t, span(2))); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if rec := <-done; rec.Code != http.StatusAccepted {
		t.Fatalf("held POST = %d (%s), want 202", rec.Code, rec.Body)
	}
	if got := srv.OverloadStats().InflightBytes; got != 0 {
		t.Fatalf("in-flight bytes after completion = %d, want 0", got)
	}

	// With the budget free, ingest proceeds.
	if rec := postSpans(srv, bytes.NewReader(encodeSpans(t, span(3))), 800, ""); rec.Code != http.StatusAccepted {
		t.Fatalf("post-recovery POST = %d, want 202", rec.Code)
	}
	if srv.Tenant(DefaultTenant).Received() != 2 {
		t.Fatalf("Received = %d, want 2 — the shed batch must not partially ingest", srv.Tenant(DefaultTenant).Received())
	}

	// A chunked POST declares no length to reserve, so any number of them
	// could be in flight beside a full budget: 411, before the body is read
	// and before the batch id is claimed — the same id, sent with a length,
	// lands fresh.
	if rec := postSpans(srv, unreadBody{t}, -1, "2a"); rec.Code != http.StatusLengthRequired {
		t.Fatalf("chunked POST under a byte budget = %d (%s), want 411", rec.Code, rec.Body)
	}
	body := encodeSpans(t, span(4))
	if rec := postSpans(srv, bytes.NewReader(body), int64(len(body)), "2a"); rec.Code != http.StatusAccepted || rec.Header().Get("X-Duplicate-Batch") != "" {
		t.Fatalf("the refused id re-posted with a length = %d, duplicate %q; want a fresh 202", rec.Code, rec.Header().Get("X-Duplicate-Batch"))
	}
	if st := srv.OverloadStats(); st.InflightBytes != 0 || srv.Tenant(DefaultTenant).Received() != 3 {
		t.Fatalf("after the 411 and its re-post: %d bytes in flight, %d received; want 0 and 3", st.InflightBytes, srv.Tenant(DefaultTenant).Received())
	}

	// A trickling POST — over a real connection, where a read deadline
	// exists — holds its reservation only until the deadline its declared
	// length earns: then the read is cut, the answer is not a 202, and the
	// bytes and the batch id are free again.
	defer func(d time.Duration) { bodyReadGrace = d }(bodyReadGrace)
	bodyReadGrace = 50 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) // an uncut request fails the test, not hangs it
	body = encodeSpans(t, span(5))
	fmt.Fprintf(conn, "POST /api/spans HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\n%s: 3b\r\nContent-Length: %d\r\n\r\n", ContentTypeJSON, batchIDHeader, len(body))
	if _, err := conn.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the trickling request to reserve its bytes", func() bool {
		return srv.OverloadStats().InflightBytes == int64(len(body))
	})
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil) // the rest of the body never comes
	if err != nil {
		t.Fatalf("no answer to the trickling POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trickling POST = %d, want the 400 of a body cut short", resp.StatusCode)
	}
	waitFor(t, "the cut request to release its bytes", func() bool { return srv.OverloadStats().InflightBytes == 0 })
	if rec := postSpans(srv, bytes.NewReader(body), int64(len(body)), "3b"); rec.Code != http.StatusAccepted || rec.Header().Get("X-Duplicate-Batch") != "" {
		t.Fatalf("the cut batch re-posted = %d, duplicate %q; want a fresh 202", rec.Code, rec.Header().Get("X-Duplicate-Batch"))
	}
	if srv.Tenant(DefaultTenant).Received() != 4 {
		t.Fatalf("Received = %d, want 4: the cut request must have published nothing", srv.Tenant(DefaultTenant).Received())
	}

	// The deadline is the body's, not the request's (net/http clears it when
	// the body reaches its end): a body read in time and then published
	// through a tap that takes longer than the deadline is still a 202, its
	// request context alive when the handler returns.
	slowTap := &recordingCollector{gate: make(chan struct{})}
	srv.Tenant(DefaultTenant).SetTap(slowTap)
	ctxErr := make(chan error, 1)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		ctxErr <- r.Context().Err()
	}))
	defer slow.Close()
	wait := 4 * bodyReadGrace
	go func() {
		time.Sleep(wait)
		slowTap.gate <- struct{}{}
	}()
	resp, err = http.Post(slow.URL+"/api/spans", ContentTypeJSON, bytes.NewReader(encodeSpans(t, span(6))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := <-ctxErr; resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("POST published %v after its body = %d, request context %v; want 202 and a live context", wait, resp.StatusCode, err)
	}
}

// holdBytes reserves n bytes of the byte budget with a request whose body
// has not arrived, until release; the request then fails decode, a 400.
func holdBytes(t *testing.T, srv *Server, n int64) (release func()) {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() { postSpans(srv, pr, n, ""); close(done) }()
	waitFor(t, "the held request to reserve its bytes", func() bool { return srv.OverloadStats().InflightBytes == n })
	return func() { pw.Close(); <-done }
}

// unreadBody is a request body that must not be read.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the body of a refused request was read")
	return 0, io.EOF
}

// A shed batch lands exactly once: a 429 claims nothing in the dedup table,
// so the retry under the same batch id is admitted fresh once the budget
// frees and its spans land, and one more re-post of that id is acknowledged
// as a duplicate and lands nothing.
func TestShedBatchLandsOnceOnRetry(t *testing.T) {
	srv := NewServer()
	srv.SetAdmission(AdmissionPolicy{MaxInflightBytes: 1000, RetryAfter: 50 * time.Millisecond})
	pr, pw := io.Pipe()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postSpans(srv, pr, 800, "") }()
	waitFor(t, "first request to reserve its bytes", func() bool {
		return srv.OverloadStats().InflightBytes == 800
	})

	body := encodeSpans(t, span(7), span(8))
	if rec := postSpans(srv, bytes.NewReader(body), 800, "5e"); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget POST = %d, want 429", rec.Code)
	}
	if _, err := pw.Write(encodeSpans(t, span(1))); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if rec := <-done; rec.Code != http.StatusAccepted {
		t.Fatalf("held POST = %d (%s), want 202", rec.Code, rec.Body)
	}

	for i, want := range []string{"", "1"} { // the retry lands; a re-post of it is a duplicate
		rec := postSpans(srv, bytes.NewReader(body), int64(len(body)), "5e")
		if rec.Code != http.StatusAccepted || rec.Header().Get("X-Duplicate-Batch") != want {
			t.Fatalf("post %d of the shed id = %d, X-Duplicate-Batch %q; want 202 and %q", i+1, rec.Code, rec.Header().Get("X-Duplicate-Batch"), want)
		}
		if got := srv.Tenant(DefaultTenant).Received(); got != 3 {
			t.Fatalf("after post %d of the shed id: received %d spans, want 3", i+1, got)
		}
	}
	seen := map[uint64]int{}
	for _, s := range srv.Tenant(DefaultTenant).View().Trace().Spans {
		seen[s.ID]++
	}
	if seen[1] != 1 || seen[7] != 1 || seen[8] != 1 || len(seen) != 3 {
		t.Fatalf("the trace holds spans %v, want 1, 7 and 8 once each", seen)
	}
}

// The span budget counts decoded-unlanded spans plus the async tap's
// backlog: a stalled online consumer sheds new batches at admission, and
// draining it re-admits them. An oversized batch alone is still admitted.
func TestServerAdmissionSpanBudgetCountsTapBacklog(t *testing.T) {
	srv := NewServer()
	srv.SetAdmission(AdmissionPolicy{MaxInflightSpans: 4, RetryAfter: time.Second})
	dst := &recordingCollector{gate: make(chan struct{})}
	tap := srv.Tenant(DefaultTenant).SetTapAsync(dst, TapOptions{Queue: 100})
	defer tap.Close()
	defer close(dst.gate)

	body := encodeSpans(t, span(1), span(2), span(3))
	if rec := postSpans(srv, bytes.NewReader(body), int64(len(body)), ""); rec.Code != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", rec.Code)
	}
	waitFor(t, "tap backlog to hold the batch", func() bool {
		st := srv.OverloadStats()
		return st.TapDepth == 3 && st.InflightSpans == 0
	})

	// 3 in the tap + 3 decoding > 4: shed, with the span count and queue
	// depth on the response.
	body2 := encodeSpans(t, span(4), span(5), span(6))
	rec := postSpans(srv, bytes.NewReader(body2), int64(len(body2)), "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget POST = %d, want 429", rec.Code)
	}
	if rec.Header().Get("X-Shed-Spans") != "3" {
		t.Fatalf("X-Shed-Spans = %q, want 3", rec.Header().Get("X-Shed-Spans"))
	}
	if rec.Header().Get("X-Tap-Queue-Depth") != "3" {
		t.Fatalf("X-Tap-Queue-Depth = %q, want 3", rec.Header().Get("X-Tap-Queue-Depth"))
	}

	// Drain the tap: the same batch is admitted on retry.
	dst.gate <- struct{}{}
	waitFor(t, "tap to drain", func() bool { return srv.OverloadStats().TapDepth == 0 })
	if rec := postSpans(srv, bytes.NewReader(body2), int64(len(body2)), ""); rec.Code != http.StatusAccepted {
		t.Fatalf("post-drain retry = %d, want 202", rec.Code)
	}
	dst.gate <- struct{}{}
	waitFor(t, "tap to drain again", func() bool { return srv.OverloadStats().TapDepth == 0 })

	// A batch bigger than the whole budget is admitted when alone.
	big := make([]*Span, 10)
	for i := range big {
		big[i] = span(uint64(100 + i))
	}
	bigBody := encodeSpans(t, big...)
	if rec := postSpans(srv, bytes.NewReader(bigBody), int64(len(bigBody)), ""); rec.Code != http.StatusAccepted {
		t.Fatalf("oversized-alone POST = %d, want 202", rec.Code)
	}
	dst.gate <- struct{}{}
}

// Both push-back paths carry Retry-After: the 429 shed and the 503
// batch-still-in-flight response — with the default one-second hint when
// no admission policy configures one.
func TestRetryAfterOnBothPushbackPaths(t *testing.T) {
	srv := NewServer()

	// 503: the batch id is claimed by a (simulated) still-decoding
	// original. No admission policy is configured — the hint must default.
	tn := srv.Tenant(DefaultTenant)
	if got := tn.claimBatch(0xabc); got != batchClaimed {
		t.Fatalf("claim = %v", got)
	}
	body := encodeSpans(t, span(1))
	rec := postSpans(srv, bytes.NewReader(body), int64(len(body)), "abc")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("in-flight retry POST = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("503 Retry-After = %q, want default 1", rec.Header().Get("Retry-After"))
	}

	// 429: a byte-budget shed behind a held request, with a configured hint
	// — rendered as integer seconds, rounded up.
	srv.SetAdmission(AdmissionPolicy{MaxInflightBytes: 10, RetryAfter: 1500 * time.Millisecond})
	release := holdBytes(t, srv, 10)
	rec = postSpans(srv, bytes.NewReader(body), int64(len(body)), "")
	release()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed POST = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "2" {
		t.Fatalf("429 Retry-After = %q, want 2 (1.5s rounds up)", rec.Header().Get("Retry-After"))
	}
}

// Retry-After rendering and parsing round-trip across the wire formats:
// integer seconds at >= 1s, non-standard decimals below.
func TestRetryAfterWireFormat(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"}, // zero hints default to a second
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{50 * time.Millisecond, "0.05"},
	}
	for _, c := range cases {
		got := retryAfterValue(c.d)
		if got != c.want {
			t.Errorf("retryAfterValue(%v) = %q, want %q", c.d, got, c.want)
		}
		d := parseRetryAfter(got)
		if d <= 0 {
			t.Errorf("parseRetryAfter(%q) = %v, want positive", got, d)
		}
	}
	if d := parseRetryAfter("Wed, 21 Oct 2015 07:28:00 GMT"); d != 0 {
		t.Errorf("HTTP-date Retry-After parsed to %v, want 0 (fall back to own backoff)", d)
	}
	if d := parseRetryAfter("-5"); d != 0 {
		t.Errorf("negative Retry-After parsed to %v, want 0", d)
	}
}
