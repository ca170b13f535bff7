package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// ingressProbe is a server with every consumer hook attached and counting —
// tap, durable sink (which refuses odd batch ids, the retryable 503) — and
// both admission budgets set, so each request exercises every reservation.
type ingressProbe struct {
	srv            *Server
	tapped, logged int
}

func (p *ingressProbe) Publish(spans ...*Span) { p.tapped += len(spans) }

func (p *ingressProbe) IngestLogged(batchID uint64, spans []*Span) error {
	if batchID%2 == 1 {
		return errors.New("probe: log refused")
	}
	p.logged += len(spans)
	return nil
}

func newIngressProbe() *ingressProbe {
	p := &ingressProbe{srv: NewServer()}
	p.srv.SetAdmission(AdmissionPolicy{MaxInflightBytes: 1 << 20, MaxInflightSpans: 1 << 12})
	p.srv.SetTenantInit(func(tn *ServerTenant) {
		tn.SetTap(p)
		tn.SetDurable(p)
	})
	return p
}

// spansRequest builds the POST by hand: httptest.NewRequest would refuse half
// of what a fuzzer — or a hostile client behind a lenient proxy — sends.
func spansRequest(method, contentType, tenant, batchID string, contentLength int64, body []byte) *http.Request {
	h := http.Header{}
	for k, v := range map[string]string{"Content-Type": contentType, TenantHeader: tenant, batchIDHeader: batchID} {
		if v != "" {
			h.Set(k, v)
		}
	}
	return &http.Request{Method: method, URL: &url.URL{Path: "/api/spans"}, Header: h,
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: contentLength}
}

// held is what the server holds across all tenants, and whether any batch
// claim is still marked in flight with no request running.
func (p *ingressProbe) held(t *testing.T) (received, stored int) {
	t.Helper()
	for _, key := range p.srv.Tenants() {
		tn := p.srv.Tenant(key)
		received += tn.Received()
		tr := tn.View().Trace()
		stored += len(tr.Spans)
		if err := tr.EncodeJSON(io.Discard); err != nil {
			t.Errorf("tenant %s holds a span its JSON views cannot encode: %v", tn.Key(), err)
		}
		tn.batchMu.Lock()
		for id, committed := range tn.seenBatch {
			if !committed {
				t.Errorf("tenant %s: batch %x is still claimed in flight after its request returned", tn.Key(), id)
			}
		}
		tn.batchMu.Unlock()
	}
	if st := p.srv.OverloadStats(); st.InflightBytes != 0 || st.InflightSpans != 0 {
		t.Errorf("admission reservations leaked: %d bytes, %d spans in flight with no request running", st.InflightBytes, st.InflightSpans)
	}
	return received, stored
}

// A span that ends before it begins, or carries a non-finite metric, refuses
// its whole batch exactly like a decode failure: 400 naming the span, nothing
// published, logged or tapped, and the batch id and reservations released so
// the corrected batch lands under the same id. End == Begin is valid. A NaN
// or ±Inf metric has no JSON form, so only the binary wire can carry one; let
// in, it would fail every JSON read of the tenant, and survive a restart in
// the WAL.
func TestServerRejectsSpanEndingBeforeItBegins(t *testing.T) {
	good := func() []*Span {
		return []*Span{
			{ID: 1, Level: LevelModel, Name: "predict", Begin: 0, End: 100},
			{ID: 2, Level: LevelLayer, Name: "conv", Begin: 10, End: 10}, // zero-length: valid
			{ID: 3, Level: LevelKernel, Name: "k", Begin: 20, End: 30},
		}
	}
	backwards := good()
	backwards[2].End = backwards[2].Begin - 1
	metric := func(v float64) []*Span {
		spans := good()
		spans[2].SetMetric("flop_count_sp", v)
		return spans
	}
	encodeJSON := func(spans []*Span) []byte {
		var b bytes.Buffer
		if err := (&Trace{Spans: spans}).EncodeJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	encodeBinary := func(spans []*Span) []byte { return AppendBinaryFrameTenant(nil, "", spans) }
	for _, tc := range []struct {
		name, contentType string
		encode            func([]*Span) []byte
		bad               []*Span
		why               string
	}{
		{ContentTypeJSON, ContentTypeJSON, encodeJSON, backwards, "ends before it begins"},
		{ContentTypeBinary, ContentTypeBinary, encodeBinary, backwards, "ends before it begins"},
		{"NaN_metric", ContentTypeBinary, encodeBinary, metric(math.NaN()), "has a non-finite metric: flop_count_sp = NaN"},
		{"+Inf_metric", ContentTypeBinary, encodeBinary, metric(math.Inf(1)), "has a non-finite metric: flop_count_sp = +Inf"},
		{"-Inf_metric", ContentTypeBinary, encodeBinary, metric(math.Inf(-1)), "has a non-finite metric: flop_count_sp = -Inf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newIngressProbe()
			post := func(spans []*Span) *httptest.ResponseRecorder {
				body := tc.encode(spans)
				rec := httptest.NewRecorder()
				p.srv.ServeHTTP(rec, spansRequest(http.MethodPost, tc.contentType, "", "2a", int64(len(body)), body))
				return rec
			}
			rec := post(tc.bad)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "span 2 of the batch (id 3) "+tc.why) {
				t.Fatalf("batch whose span %s: %d %q", tc.why, rec.Code, rec.Body)
			}
			if received, stored := p.held(t); received != 0 || stored != 0 || p.tapped != 0 || p.logged != 0 {
				t.Fatalf("the refused batch left %d received, %d stored, %d tapped, %d logged", received, stored, p.tapped, p.logged)
			}
			rec = post(good())
			if rec.Code != http.StatusAccepted || rec.Header().Get("X-Duplicate-Batch") != "" {
				t.Fatalf("corrected batch under the same id: %d, duplicate %q", rec.Code, rec.Header().Get("X-Duplicate-Batch"))
			}
			if received, stored := p.held(t); received != 3 || stored != 3 || p.tapped != 3 || p.logged != 3 {
				t.Fatalf("the corrected batch left %d received, %d stored, %d tapped, %d logged; want 3 each", received, stored, p.tapped, p.logged)
			}
		})
	}
}

// FuzzHandleSpans: whatever the method, headers, declared length and body,
// the ingest handler never panics, never partially publishes (anything but
// a 202 leaves every tenant, the tap and the durable sink as they were),
// never leaks a batch claim (the same id with a valid body is then neither
// pushed back as in flight nor acknowledged as a duplicate) and never leaks
// an admission reservation.
func FuzzHandleSpans(f *testing.F) {
	valid := []*Span{
		{ID: 1, Level: LevelModel, Name: "predict", Begin: 0, End: 100},
		{ID: 0, Level: LevelLayer, Name: "conv", Begin: 10, End: 50}, // server-assigned id
		{ID: 3, Level: LevelKernel, Kind: KindLaunch, Name: "k", Begin: 20, End: 30, CorrelationID: 7},
	}
	var jsonBody, envelope bytes.Buffer
	if err := (&Trace{Spans: valid}).EncodeJSON(&jsonBody); err != nil {
		f.Fatal(err)
	}
	if err := (&Trace{Spans: valid, Tenant: "acme"}).EncodeJSON(&envelope); err != nil {
		f.Fatal(err)
	}
	frame := AppendBinaryFrameTenant(nil, "", valid)
	tenantFrame := AppendBinaryFrameTenant(nil, "acme", valid)
	backwards := AppendBinaryFrameTenant(nil, "", []*Span{{ID: 9, Name: "backwards", Begin: 10, End: 9}})
	nan := &Span{ID: 11, Level: LevelKernel, Kind: KindExec, Name: "k", Begin: 20, End: 30, CorrelationID: 7}
	nan.SetMetric("flop_count_sp", math.NaN())
	nanFrame := AppendBinaryFrameTenant(nil, "", []*Span{nan})
	// A frame whose records claim owned links, which no tracer has: the
	// block a durable consumer logs carries the flags cleared.
	ownedFrame := append(appendFrameHeader(nil, "", 0), AppendSpanBlock(nil, valid[:1], func(int) bool { return true })...)
	binary.LittleEndian.PutUint32(ownedFrame[frameHeaderSize-4:], uint32(len(ownedFrame)-frameHeaderSize))
	for _, seed := range []struct {
		method, contentType, tenant, batchID string
		body                                 []byte
	}{
		{http.MethodPost, ContentTypeJSON, "", "2", jsonBody.Bytes()},
		{http.MethodPost, "", "", "", jsonBody.Bytes()},
		{http.MethodPost, ContentTypeJSON, "", "4", envelope.Bytes()},
		{http.MethodPost, ContentTypeJSON, "other", "6", envelope.Bytes()}, // header contradicts the envelope
		{http.MethodPost, ContentTypeBinary, "", "8", frame},
		{http.MethodPost, ContentTypeBinary, "acme", "a", tenantFrame},
		{http.MethodPost, ContentTypeBinary, "", "c", tenantFrame}, // re-routed by the wire tenant
		{http.MethodPost, ContentTypeBinary, "", "3", frame},       // odd id: the sink refuses
		{http.MethodPost, ContentTypeBinary, "", "e", backwards},
		{http.MethodPost, ContentTypeBinary, "", "20", nanFrame},
		{http.MethodPost, ContentTypeBinary, "", "22", ownedFrame},
		{http.MethodPost, ContentTypeBinary, "", "10", frame[:len(frame)/2]},
		{http.MethodPost, ContentTypeJSON, "", "12", jsonBody.Bytes()[:jsonBody.Len()/2]},
		{http.MethodPost, ContentTypeBinary, "", "14", jsonBody.Bytes()},
		{http.MethodPost, "text/plain", "", "16", frame},
		{http.MethodPost, ContentTypeBinary, ".hidden", "18", frame},
		{http.MethodPost, ContentTypeBinary, "", "0", frame},
		{http.MethodPost, ContentTypeBinary, "", "not-hex", frame},
		{http.MethodGet, ContentTypeBinary, "", "1a", frame},
	} {
		f.Add(seed.method, seed.contentType, seed.tenant, seed.batchID, int64(len(seed.body)), seed.body)
		f.Add(seed.method, seed.contentType, seed.tenant, seed.batchID, int64(len(seed.body)/2), seed.body)
		f.Add(seed.method, seed.contentType, seed.tenant, seed.batchID, int64(-1), seed.body) // chunked: no declared length
	}
	f.Fuzz(func(t *testing.T, method, contentType, tenant, batchID string, contentLength int64, body []byte) {
		p := newIngressProbe()
		rec := httptest.NewRecorder()
		p.srv.ServeHTTP(rec, spansRequest(method, contentType, tenant, batchID, contentLength, body))
		received, stored := p.held(t)
		if contentLength < 0 && rec.Code == http.StatusAccepted {
			t.Fatal("a length-less POST was accepted under a byte budget: it reserved nothing")
		}
		if rec.Code != http.StatusAccepted {
			if received != 0 || stored != 0 || p.tapped != 0 || p.logged != 0 {
				t.Fatalf("a %d left %d received, %d stored, %d tapped, %d logged", rec.Code, received, stored, p.tapped, p.logged)
			}
		} else if received != stored || received != p.tapped || received != p.logged {
			t.Fatalf("a 202 left %d received, %d stored, %d tapped, %d logged", received, stored, p.tapped, p.logged)
		}

		// The same id again, now over a body nothing can refuse.
		id, err := strconv.ParseUint(batchID, 16, 64)
		if err != nil || id == 0 || id%2 == 1 || ValidateTenant(tenant) != nil {
			return
		}
		again := httptest.NewRecorder()
		p.srv.ServeHTTP(again, spansRequest(http.MethodPost, ContentTypeBinary, tenant, batchID, int64(len(frame)), frame))
		if again.Code != http.StatusAccepted {
			t.Fatalf("valid re-post of batch %s after a %d: %d %q", batchID, rec.Code, again.Code, again.Body)
		}
		// A duplicate ack is owed exactly when the first request committed
		// the id in the tenant this one lands in: the one the header names,
		// or the default.
		first := method == http.MethodPost && rec.Code == http.StatusAccepted
		if dup := again.Header().Get("X-Duplicate-Batch") != ""; dup && !first {
			t.Fatalf("batch %s was refused with %d, yet its valid re-post is acknowledged as a duplicate", batchID, rec.Code)
		}
		p.held(t)
	})
}
