package trace

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// binarySpans builds a batch exercising every encoded field. At most one
// tag and one metric per span, so the encoding is deterministic (map
// iteration cannot reorder the intern table) and byte-exact re-encoding
// can be asserted.
func binarySpans() []*Span {
	s1 := &Span{ID: 1, Level: LevelApplication, Name: "evaluate", Source: "xsp-app", Begin: 0, End: 100}
	s2 := &Span{ID: 2, ParentID: 1, Level: LevelModel, Name: "model_prediction", Source: "xsp-model", Begin: 5, End: 90}
	s3 := &Span{ID: 3, Level: LevelKernel, Kind: KindLaunch, Name: "cudaLaunchKernel", Source: "cupti", Begin: 10, End: 12, CorrelationID: 77}
	s4 := &Span{ID: 4, Level: LevelKernel, Kind: KindExec, Name: "volta_sgemm", Source: "cupti", Begin: 13, End: 40, CorrelationID: 77}
	s4.SetTag("stream", "3")
	s4.SetMetric("dram_read_bytes", 4096)
	return []*Span{s1, s2, s3, s4}
}

func sameSpan(t *testing.T, got, want *Span) {
	t.Helper()
	if got.ID != want.ID || got.ParentID != want.ParentID || got.CorrelationID != want.CorrelationID ||
		got.Begin != want.Begin || got.End != want.End || got.Level != want.Level || got.Kind != want.Kind ||
		got.Name != want.Name || got.Source != want.Source {
		t.Fatalf("span %d round-tripped to %+v, want %+v", want.ID, got, want)
	}
	if len(got.Tags) != len(want.Tags) || len(got.Metrics) != len(want.Metrics) {
		t.Fatalf("span %d tags/metrics %d/%d, want %d/%d", want.ID, len(got.Tags), len(got.Metrics), len(want.Tags), len(want.Metrics))
	}
	for k, v := range want.Tags {
		if got.Tags[k] != v {
			t.Fatalf("span %d tag %q = %q, want %q", want.ID, k, got.Tags[k], v)
		}
	}
	for k, v := range want.Metrics {
		// Bit equality, so NaN-valued metrics (fuzz inputs) compare equal.
		if math.Float64bits(got.Metrics[k]) != math.Float64bits(v) {
			t.Fatalf("span %d metric %q = %v, want %v", want.ID, k, got.Metrics[k], v)
		}
	}
}

func TestSpanBlockRoundTripByteExact(t *testing.T) {
	spans := binarySpans()
	ownedIn := func(i int) bool { return i == 1 }
	buf := AppendSpanBlock(nil, spans, ownedIn)

	got, owned, rest, err := DecodeSpanBlock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the block", len(rest))
	}
	if len(got) != len(spans) {
		t.Fatalf("decoded %d spans, want %d", len(got), len(spans))
	}
	for i := range spans {
		sameSpan(t, got[i], spans[i])
		wantOwned := ownedIn(i)
		if gotOwned := owned[i/64]&(1<<(i%64)) != 0; gotOwned != wantOwned {
			t.Fatalf("span %d owned=%v, want %v", i, gotOwned, wantOwned)
		}
	}

	// Re-encoding the decoded spans must reproduce the bytes exactly.
	again := AppendSpanBlock(nil, got, ownedIn)
	if !bytes.Equal(buf, again) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(buf), len(again))
	}
}

func TestBinaryFrameRoundTrip(t *testing.T) {
	spans := binarySpans()
	var buf bytes.Buffer
	if err := (&Trace{Spans: spans}).EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := DecodeBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != len(spans) {
		t.Fatalf("decoded %d spans, want %d", len(tr.Spans), len(spans))
	}
	// DecodeBinary returns canonical begin order, like DecodeJSON.
	for i := 1; i < len(tr.Spans); i++ {
		if CanonicalLess(tr.Spans[i], tr.Spans[i-1]) {
			t.Fatal("decoded trace not in canonical order")
		}
	}
	for _, want := range spans {
		got := tr.ByID(want.ID)
		if got == nil {
			t.Fatalf("span %d missing after round trip", want.ID)
		}
		sameSpan(t, got, want)
	}
}

func TestBinaryDecodeRejectsCorruption(t *testing.T) {
	frame := AppendBinaryFrame(nil, binarySpans())

	// Every truncation must fail cleanly — wrapping ErrBadFrame, never
	// panicking, never returning spans.
	for n := 0; n < len(frame); n++ {
		tr, err := DecodeBinary(bytes.NewReader(frame[:n]))
		if err == nil || tr != nil {
			t.Fatalf("truncation at %d/%d decoded successfully", n, len(frame))
		}
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrBadFrame", n, err)
		}
	}

	corrupt := func(name string, mutate func([]byte)) {
		b := append([]byte(nil), frame...)
		mutate(b)
		if _, err := DecodeBinary(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s decoded successfully", name)
		} else if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: error %v does not wrap ErrBadFrame", name, err)
		}
	}
	corrupt("bad magic", func(b []byte) { b[0] = 'Y' })
	corrupt("future version", func(b []byte) { b[4] = 99 })
	corrupt("length prefix past the body", func(b []byte) { b[5], b[6] = 0xff, 0xff })
	corrupt("span kind out of range", func(b []byte) {
		b[frameHeaderSize+4+44] = 250 // first record's kind byte
	})
	corrupt("name offset out of blob bounds", func(b []byte) {
		copy(b[frameHeaderSize+4+48:], []byte{0xff, 0xff, 0xff, 0x7f})
	})

	// A payload length that covers garbage beyond the span block must be
	// rejected: the block's own accounting is authoritative.
	b := append([]byte(nil), frame...)
	b = append(b, 0xAB)
	le := b[5:9]
	n := uint32(le[0]) | uint32(le[1])<<8 | uint32(le[2])<<16 | uint32(le[3])<<24
	n++
	le[0], le[1], le[2], le[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	if _, err := DecodeBinary(bytes.NewReader(b)); err == nil {
		t.Fatal("frame with in-length trailing garbage decoded successfully")
	} else if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing garbage: error %v does not wrap ErrBadFrame", err)
	}
}

// FuzzBinaryRoundTrip: arbitrary bytes must never panic the decoder, and
// anything that decodes must re-encode/re-decode to the same spans.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(AppendBinaryFrame(nil, binarySpans()))
	f.Add(AppendSpanBlock(nil, binarySpans(), nil))
	f.Add([]byte(wireMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := DecodeBinary(bytes.NewReader(data)); err == nil {
			again, err2 := DecodeBinary(bytes.NewReader(AppendBinaryFrame(nil, tr.Spans)))
			if err2 != nil {
				t.Fatalf("re-encode of decoded frame failed: %v", err2)
			}
			if len(again.Spans) != len(tr.Spans) {
				t.Fatalf("re-decode has %d spans, want %d", len(again.Spans), len(tr.Spans))
			}
		}
		spans, owned, _, err := DecodeSpanBlock(data)
		if err != nil {
			return
		}
		buf := AppendSpanBlock(nil, spans, func(i int) bool { return owned[i/64]&(1<<(i%64)) != 0 })
		spans2, owned2, rest, err := DecodeSpanBlock(buf)
		if err != nil {
			t.Fatalf("re-encoded block failed to decode: %v", err)
		}
		if len(rest) != 0 || len(spans2) != len(spans) {
			t.Fatalf("re-decode: %d spans (want %d), %d rest bytes", len(spans2), len(spans), len(rest))
		}
		for i := range spans {
			was := owned[i/64]&(1<<(i%64)) != 0
			is := owned2[i/64]&(1<<(i%64)) != 0
			if was != is {
				t.Fatalf("span %d owned bit changed across round trip: %v -> %v", i, was, is)
			}
			sameSpan(t, spans2[i], spans[i])
		}
	})
}

func TestServerSpanContentNegotiation(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body []byte, contentType, batchID string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/spans", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if batchID != "" {
			req.Header.Set(batchIDHeader, batchID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	spans := binarySpans()
	frame := AppendBinaryFrame(nil, spans)

	// An unsupported content type is refused with 415 before any batch id
	// is claimed.
	if resp := post(frame, "application/x-protobuf", "ab"); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("unknown content type: got %s, want 415", resp.Status)
	}

	// A corrupt binary frame is a clean 400: nothing published, batch id
	// released.
	if resp := post(frame[:len(frame)-3], ContentTypeBinary, "ab"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt frame: got %s, want 400", resp.Status)
	}
	if srv.Received() != 0 {
		t.Fatalf("corrupt frame published %d spans", srv.Received())
	}

	// The corrected retry with the same batch id lands exactly once.
	if resp := post(frame, ContentTypeBinary, "ab"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary batch: got %s, want 202", resp.Status)
	}
	if resp := post(frame, ContentTypeBinary, "ab"); resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Duplicate-Batch") != "1" {
		t.Fatal("binary re-ship of a committed batch must be acknowledged as duplicate")
	}
	if got, want := srv.Received(), len(spans); got != want {
		t.Fatalf("server received %d spans, want %d exactly once", got, want)
	}

	// /api/trace content-negotiates: binary when asked, JSON otherwise —
	// and FetchTrace (which asks for binary) sees the same spans.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/trace", nil)
	req.Header.Set("Accept", ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, ContentTypeBinary) {
		t.Fatalf("Accept: binary answered with Content-Type %q", ct)
	}
	tr, err := DecodeBinary(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != len(spans) {
		t.Fatalf("binary /api/trace returned %d spans, want %d", len(tr.Spans), len(spans))
	}
	fetched, err := FetchTrace(nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(fetched.Spans) != len(spans) {
		t.Fatalf("FetchTrace returned %d spans, want %d", len(fetched.Spans), len(spans))
	}
	for _, want := range spans {
		if got := fetched.ByID(want.ID); got == nil {
			t.Fatalf("span %d missing from fetched trace", want.ID)
		} else {
			sameSpan(t, got, want)
		}
	}
}

// TestCollectorBinaryFallbackExactlyOnce pins the 415 fallback contract:
// against a server that refuses binary, the collector latches JSON and
// keeps the batch id across the encoding switch and a lost 202, so the
// batch lands exactly once.
func TestCollectorBinaryFallbackExactlyOnce(t *testing.T) {
	srv := NewServer()
	var binaryPosts, lostOnce int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/spans" && strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeBinary) {
			binaryPosts++
			http.Error(w, "binary spans not supported here", http.StatusUnsupportedMediaType)
			return
		}
		if r.URL.Path == "/api/spans" && lostOnce == 0 {
			// The server processes the JSON batch, but the 202 is lost in
			// transit — the strongest duplicate temptation for the client.
			lostOnce++
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, r)
			if rec.Code != http.StatusAccepted {
				t.Errorf("inner server answered %d", rec.Code)
			}
			http.Error(w, "proxy hiccup", http.StatusBadGateway)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewHTTPCollector(ts.URL)
	c.SetRetryPolicy(RetryPolicy{}) // no backoff: retry immediately
	if c.Encoding() != EncodingBinary {
		t.Fatal("collector must default to the binary encoding")
	}
	spans := binarySpans()
	c.Publish(spans...)

	// First flush: binary → 415 → JSON fallback in the same post → the
	// 202 is lost, so the flush fails but the server committed the batch.
	if _, err := c.Flush(); err == nil {
		t.Fatal("first flush must surface the lost 202")
	}
	if c.Encoding() != EncodingJSON {
		t.Fatal("415 did not latch the JSON fallback")
	}
	if binaryPosts != 1 {
		t.Fatalf("collector tried binary %d times, want 1 (latched)", binaryPosts)
	}

	// Retry: straight JSON, same batch id → duplicate ack, no re-publish.
	n, err := c.Flush()
	if err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	if n != len(spans) {
		t.Fatalf("retry shipped %d spans, want %d", n, len(spans))
	}
	if binaryPosts != 1 {
		t.Fatalf("retry went out as binary again (%d binary posts)", binaryPosts)
	}
	if got, want := srv.Received(), len(spans); got != want {
		t.Fatalf("server received %d spans, want exactly %d", got, want)
	}
	if c.Backlog() != 0 {
		t.Fatalf("collector still holds %d spans", c.Backlog())
	}
}
