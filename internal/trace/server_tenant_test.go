package trace

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// postTenant drives a span POST through ServeHTTP with an explicit tenant
// header ("" sends none) — the tenant-routing counterpart of postSpans.
func postTenant(srv *Server, tenant string, body []byte, contentType, batchID string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/api/spans", bytes.NewReader(body))
	req.ContentLength = int64(len(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	if batchID != "" {
		req.Header.Set(batchIDHeader, batchID)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// A PR-8-era binary frame — hand-assembled byte for byte from the v1
// layout, not produced by today's encoder — must still be accepted by a
// tenantless POST and land on the default tenant with unchanged
// semantics. This is the backward-compatibility contract: old collectors
// keep working against a multi-tenant server without knowing tenants
// exist. The test also pins today's tenantless encoder to that exact v1
// byte stream, so the compatibility cannot silently rot from the encode
// side either.
func TestLegacyV1FrameRoutesToDefaultTenant(t *testing.T) {
	spans := []*Span{span(1), span(2), span(3)}

	// The v1 frame, assembled from the documented layout: magic, version
	// byte 1, little-endian payload length, span block.
	payload := AppendSpanBlock(nil, spans, nil)
	legacy := []byte("XSPB")
	legacy = append(legacy, 1)
	legacy = binary.LittleEndian.AppendUint32(legacy, uint32(len(payload)))
	legacy = append(legacy, payload...)

	if got := AppendBinaryFrameTenant(nil, "", spans); !bytes.Equal(got, legacy) {
		t.Fatalf("tenantless AppendBinaryFrameTenant is not byte-identical to the v1 layout:\n got %x\nwant %x", got, legacy)
	}
	if got := AppendBinaryFrameTenant(nil, DefaultTenant, spans); !bytes.Equal(got, legacy) {
		t.Fatalf("DefaultTenant frame is not byte-identical to the v1 layout")
	}

	srv := NewServer()
	rec := postTenant(srv, "", legacy, ContentTypeBinary, "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("legacy frame POST = %d (%s), want 202", rec.Code, rec.Body)
	}
	if got := srv.Tenant(DefaultTenant).Received(); got != len(spans) {
		t.Fatalf("default tenant Received = %d, want %d", got, len(spans))
	}
	tr := srv.Tenant(DefaultTenant).View().Trace()
	if len(tr.Spans) != len(spans) {
		t.Fatalf("default tenant trace has %d spans, want %d", len(tr.Spans), len(spans))
	}
	// No other tenant materialized along the way.
	if keys := srv.Tenants(); len(keys) != 1 || keys[0] != DefaultTenant {
		t.Fatalf("tenants after legacy POST = %v, want [%s]", keys, DefaultTenant)
	}
}

// The binary frame round-trips its tenant (v2), and the JSON envelope
// does the same; tenantless stays the historical bare array.
func TestWireTenantRoundTrip(t *testing.T) {
	spans := []*Span{span(1)}
	for _, tenant := range []string{"", DefaultTenant, "team-a", "a.b_c-9"} {
		frame := AppendBinaryFrameTenant(nil, tenant, spans)
		got, err := DecodeBinary(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("tenant %q: DecodeBinary: %v", tenant, err)
		}
		want := tenant
		if tenant == DefaultTenant {
			want = "" // the zero value on the wire
		}
		if got.Tenant != want {
			t.Fatalf("tenant %q: decoded binary tenant %q, want %q", tenant, got.Tenant, want)
		}

		var buf bytes.Buffer
		if err := (&Trace{Spans: spans, Tenant: tenant}).EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		body := strings.TrimSpace(buf.String())
		if want == "" && !strings.HasPrefix(body, "[") {
			t.Fatalf("tenant %q: JSON is not the historical bare array: %s", tenant, body)
		}
		if want != "" && !strings.HasPrefix(body, "{") {
			t.Fatalf("tenant %q: JSON is not the envelope: %s", tenant, body)
		}
		gj, err := DecodeJSON(&buf)
		if err != nil {
			t.Fatalf("tenant %q: DecodeJSON: %v", tenant, err)
		}
		if gj.Tenant != want {
			t.Fatalf("tenant %q: decoded JSON tenant %q, want %q", tenant, gj.Tenant, want)
		}
	}

	// A v2 frame with an invalid embedded tenant decodes nothing.
	bad := []byte("XSPB")
	bad = append(bad, 2, 3)
	bad = append(bad, "a/b"...)
	bad = binary.LittleEndian.AppendUint32(bad, 0)
	if _, err := DecodeBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("v2 frame with invalid tenant key decoded")
	}
}

// Routing: the X-Tenant header wins, the wire tenant routes a header-less
// request, and a header that contradicts the wire tenant is a 400 —
// never a publish to either tenant.
func TestTenantRouting(t *testing.T) {
	srv := NewServer()

	// Header-routed, tenantless payload.
	if rec := postTenant(srv, "team-a", encodeSpans(t, span(1)), "", ""); rec.Code != http.StatusAccepted {
		t.Fatalf("header-routed POST = %d (%s)", rec.Code, rec.Body)
	}
	// Wire-routed: a v2 frame, no header.
	frame := AppendBinaryFrameTenant(nil, "team-b", []*Span{span(2)})
	if rec := postTenant(srv, "", frame, ContentTypeBinary, ""); rec.Code != http.StatusAccepted {
		t.Fatalf("wire-routed POST = %d (%s)", rec.Code, rec.Body)
	}
	// Header and wire agreeing is fine.
	frame = AppendBinaryFrameTenant(nil, "team-a", []*Span{span(3)})
	if rec := postTenant(srv, "team-a", frame, ContentTypeBinary, ""); rec.Code != http.StatusAccepted {
		t.Fatalf("agreeing POST = %d (%s)", rec.Code, rec.Body)
	}
	// Contradiction: 400, and nobody ingested the span.
	frame = AppendBinaryFrameTenant(nil, "team-b", []*Span{span(4)})
	if rec := postTenant(srv, "team-a", frame, ContentTypeBinary, ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("contradicting POST = %d, want 400", rec.Code)
	}
	// An invalid header key is a 400 before anything is decoded.
	if rec := postTenant(srv, "no/slashes", encodeSpans(t, span(5)), "", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid tenant POST = %d, want 400", rec.Code)
	}

	a, b := srv.Tenant("team-a"), srv.Tenant("team-b")
	if got := a.Received(); got != 2 {
		t.Fatalf("team-a Received = %d, want 2 (spans 1 and 3)", got)
	}
	if got := b.Received(); got != 1 {
		t.Fatalf("team-b Received = %d, want 1 (span 2)", got)
	}
	if tr := a.View().Trace(); tr.Tenant != "team-a" || tr.SpansByID()[4] != nil {
		t.Fatalf("team-a trace tenant %q, span4 %v", tr.Tenant, tr.SpansByID()[4])
	}
	if slices.Contains(srv.Tenants(), "no") || slices.Contains(srv.Tenants(), "no/slashes") {
		t.Fatal("invalid tenant key materialized a tenant")
	}
}

// /api/trace and FetchTraceTenant read the addressed tenant — and an
// unknown tenant reads empty without materializing state.
func TestTraceReadsPerTenant(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := NewHTTPCollector(ts.URL)
	if err := c.SetTenant("team-a"); err != nil {
		t.Fatal(err)
	}
	if got := c.tenant; got != "team-a" {
		t.Fatalf("tenant = %q", got)
	}
	c.Publish(span(1), span(2))
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := FetchTraceTenant(ts.Client(), ts.URL, "team-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 2 {
		t.Fatalf("team-a trace has %d spans, want 2", len(got.Spans))
	}
	// The default tenant saw nothing.
	def, err := FetchTraceTenant(ts.Client(), ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Spans) != 0 {
		t.Fatalf("default trace has %d spans, want 0", len(def.Spans))
	}
	// Unknown tenant: empty, and still not materialized afterwards.
	empty, err := FetchTraceTenant(ts.Client(), ts.URL, "nobody")
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Spans) != 0 {
		t.Fatalf("unknown tenant trace has %d spans", len(empty.Spans))
	}
	if slices.Contains(srv.Tenants(), "nobody") {
		t.Fatal("GET /api/trace materialized an unknown tenant")
	}
}

// /api/reset clears exactly the addressed tenant: its collector, its
// received count, and its batch-dedup window — and nothing of its
// neighbor's. This is the documented multi-tenant reset contract.
func TestResetIsPerTenant(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(tenant, batchID string, spans ...*Span) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/spans",
			bytes.NewReader(encodeSpans(t, spans...)))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		if batchID != "" {
			req.Header.Set(batchIDHeader, batchID)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST tenant=%q = %d", tenant, resp.StatusCode)
		}
		return resp
	}

	post("team-a", "a1", span(1))
	post("team-b", "b1", span(2), span(3))

	// Reset team-a only.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/reset", nil)
	req.Header.Set(TenantHeader, "team-a")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("reset = %d, want 204", resp.StatusCode)
	}

	a, b := srv.Tenant("team-a"), srv.Tenant("team-b")
	if got := a.Received(); got != 0 {
		t.Fatalf("team-a Received after reset = %d, want 0", got)
	}
	if got := len(a.View().Trace().Spans); got != 0 {
		t.Fatalf("team-a trace after reset has %d spans", got)
	}
	// team-b is untouched: count, spans, and dedup window.
	if got := b.Received(); got != 2 {
		t.Fatalf("team-b Received after neighbor reset = %d, want 2", got)
	}
	if got := len(b.View().Trace().Spans); got != 2 {
		t.Fatalf("team-b trace after neighbor reset has %d spans", got)
	}
	if resp := post("team-b", "b1", span(2), span(3)); resp.Header.Get("X-Duplicate-Batch") != "1" {
		t.Fatal("team-b dedup window lost to a neighbor's reset: retry was not duplicate-acked")
	}
	if got := b.Received(); got != 2 {
		t.Fatalf("duplicate-acked retry changed team-b Received to %d", got)
	}
	// team-a's own window did clear: its old batch id is fresh again.
	if resp := post("team-a", "a1", span(1)); resp.Header.Get("X-Duplicate-Batch") != "" {
		t.Fatal("team-a batch id survived its own reset")
	}
}

// Overload isolation at the admission layer: a tenant whose stalled tap
// fills its span budget sheds with 429 while another tenant's POSTs land
// first-try, under one shared admission policy.
func TestOverloadShedsPerTenant(t *testing.T) {
	srv := NewServer()
	srv.SetAdmission(AdmissionPolicy{MaxInflightSpans: 2, RetryAfter: 50 * time.Millisecond})

	stalled := &recordingCollector{gate: make(chan struct{})}
	tap := srv.Tenant("noisy").SetTapAsync(stalled, TapOptions{})
	defer tap.Close()
	defer close(stalled.gate)
	if rec := postTenant(srv, "noisy", encodeSpans(t, span(7), span(8)), "", ""); rec.Code != http.StatusAccepted {
		t.Fatalf("noisy tenant's budget-filling POST = %d, want 202", rec.Code)
	}
	waitFor(t, "the stalled tap to hold the batch", func() bool { return srv.Tenant("noisy").OverloadStats().TapDepth == 2 })

	body := encodeSpans(t, span(1))
	if rec := postTenant(srv, "noisy", body, "", ""); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded tenant POST = %d, want 429", rec.Code)
	}
	if rec := postTenant(srv, "quiet", body, "", ""); rec.Code != http.StatusAccepted {
		t.Fatalf("quiet tenant POST = %d (%s), want 202 first-try", rec.Code, rec.Body)
	}
	if rec := postTenant(srv, "", body, "", ""); rec.Code != http.StatusAccepted {
		t.Fatalf("default tenant POST = %d, want 202", rec.Code)
	}

	// The shed is attributed to the noisy tenant alone.
	if got := srv.Tenant("noisy").OverloadStats().ShedRequests; got != 1 {
		t.Fatalf("noisy ShedRequests = %d, want 1", got)
	}
	if got := srv.Tenant("quiet").OverloadStats().ShedRequests; got != 0 {
		t.Fatalf("quiet ShedRequests = %d, want 0", got)
	}
	if got := srv.OverloadStats().ShedRequests; got != 1 {
		t.Fatalf("server ShedRequests = %d, want 1", got)
	}
	// The wire-routed path sheds by the wire tenant too: a header-less v2
	// frame naming the noisy tenant is refused after decode.
	frame := AppendBinaryFrameTenant(nil, "noisy", []*Span{span(9)})
	if rec := postTenant(srv, "", frame, ContentTypeBinary, ""); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("wire-routed POST to overloaded tenant = %d, want 429", rec.Code)
	}
}
