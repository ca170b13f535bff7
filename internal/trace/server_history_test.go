package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
)

// historyStore is a tap consumer that keeps what it is handed — the batch
// boundaries through the recordingCollector it embeds — and serves it back
// the way a tenant's history must: header copies in canonical order.
type historyStore struct {
	recordingCollector
	spans []*Span // under recordingCollector.mu
}

func (h *historyStore) Publish(spans ...*Span) {
	h.recordingCollector.Publish(spans...)
	h.mu.Lock()
	h.spans = append(h.spans, spans...)
	h.mu.Unlock()
}

func (h *historyStore) view() View {
	h.mu.Lock()
	defer h.mu.Unlock()
	return spansView(MergeRuns([][]*Span{CloneHeaders(h.spans)}))
}

// historyConsumer is a Consumer double shaped like internal/server's
// tenant: the sink first, when there is one — its refusal is the batch's —
// then the store, whose view /api/trace serves.
type historyConsumer struct {
	store *historyStore
	sink  *failingSink // nil: nothing refuses
}

func (c historyConsumer) Ingest(batchID uint64, spans []*Span, _ []byte) error {
	if c.sink != nil {
		if err := c.sink.IngestLogged(batchID, spans); err != nil {
			return err
		}
	}
	c.store.Publish(spans...)
	return nil
}

func (historyConsumer) Backlog() int { return 0 }

func (c historyConsumer) View() View { return c.store.view() }

// failingSink is a durable log that refuses while fail is set.
type failingSink struct {
	fail   bool
	logged int
}

func (f *failingSink) IngestLogged(uint64, []*Span) error {
	if f.fail {
		return errors.New("disk gone")
	}
	f.logged++
	return nil
}

// A tenant holds no spans itself: an accepted POST goes to its consumer's
// store — once, in order, after the durable sink — and /api/trace is the
// history's answer under the tenant's key. Whatever is not accepted
// forwards nothing, and a neighbour's history sees only its own batches.
// The server is wired the way internal/server wires it: over a table its
// caller owns, each tenant built around its one consumer.
func TestTenantHistoryForwardsWithoutRetaining(t *testing.T) {
	store, sink, neighbour := &historyStore{}, &failingSink{}, &historyStore{}
	var srv *Server
	srv = NewServerOn(NewTable(func(key string) *ServerTenant {
		if key != "hist" {
			return srv.NewTenant(key, historyConsumer{store: neighbour})
		}
		return srv.NewTenant(key, historyConsumer{store: store, sink: sink})
	}), func(tn *ServerTenant) *ServerTenant { return tn })
	srv.SetAdmission(AdmissionPolicy{})
	hist, plain := srv.Tenant("hist"), srv.Tenant("plain")

	var want [][]uint64
	forwarded := func(step string) {
		t.Helper()
		if got := store.snapshot(); !slices.EqualFunc(got, want, slices.Equal[[]uint64]) {
			t.Fatalf("%s: the tap has seen batches %v, want %v", step, got, want)
		}
	}
	post := func(step string, wantCode int, body []byte, contentType, batchID string, ids ...uint64) *httptest.ResponseRecorder {
		t.Helper()
		rec := postTenant(srv, "hist", body, contentType, batchID)
		if rec.Code != wantCode {
			t.Fatalf("%s: POST = %d (%s), want %d", step, rec.Code, rec.Body, wantCode)
		}
		if ids != nil {
			want = append(want, ids)
		}
		forwarded(step)
		return rec
	}

	// Accepted: JSON and binary, with and without a batch id; one span
	// arrives tracer-parented.
	post("json", http.StatusAccepted, encodeSpans(t, span(5), span(3)), ContentTypeJSON, "a1", 3, 5) // decoders sort a batch
	parented := span(9)
	parented.ParentID = 3
	post("binary", http.StatusAccepted, AppendBinaryFrameTenant(nil, "hist", []*Span{span(7), parented}), ContentTypeBinary, "a2", 7, 9)
	post("no batch id", http.StatusAccepted, encodeSpans(t, span(11)), "", "", 11)
	if got := hist.Received(); got != 5 {
		t.Fatalf("Received = %d, want 5", got)
	}
	if sink.logged != 3 {
		t.Fatalf("the durable sink logged %d batches, want 3", sink.logged)
	}

	// Not accepted: each of these must leave the tap where it was.
	post("400", http.StatusBadRequest, []byte("{not json"), ContentTypeJSON, "b1")
	srv.SetAdmission(AdmissionPolicy{MaxInflightBytes: 10})
	release := holdBytes(t, srv, 10)
	post("429", http.StatusTooManyRequests, encodeSpans(t, span(13)), ContentTypeJSON, "b2")
	release()
	srv.SetAdmission(AdmissionPolicy{})
	if rec := post("duplicate", http.StatusAccepted, encodeSpans(t, span(5), span(3)), ContentTypeJSON, "a1"); rec.Header().Get("X-Duplicate-Batch") != "1" {
		t.Fatal("a re-shipped batch id was not acknowledged as a duplicate")
	}
	sink.fail = true
	post("503", http.StatusServiceUnavailable, encodeSpans(t, span(15)), ContentTypeJSON, "b3")
	sink.fail = false
	post("503 retried", http.StatusAccepted, encodeSpans(t, span(15)), ContentTypeJSON, "b3", 15)
	if got := hist.Received(); got != 6 {
		t.Fatalf("Received = %d after the pushed-back batches, want 6", got)
	}
	// /api/trace is src() under the tenant's key, byte for byte, both ways.
	for _, accept := range []string{ContentTypeJSON, ContentTypeBinary} {
		req := httptest.NewRequest(http.MethodGet, "/api/trace", nil)
		req.Header.Set(TenantHeader, "hist")
		req.Header.Set("Accept", accept)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		src := store.view().Trace()
		src.Tenant = "hist"
		var wantBody bytes.Buffer
		encode, decode := src.EncodeJSON, DecodeJSON
		if accept == ContentTypeBinary {
			encode, decode = src.EncodeBinary, DecodeBinary
		}
		if err := encode(&wantBody); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), wantBody.Bytes()) {
			t.Fatalf("GET /api/trace (%s) = %d, %d bytes; want the history's %d bytes", accept, rec.Code, rec.Body.Len(), wantBody.Len())
		}
		got, err := decode(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tenant != "hist" || len(got.Spans) != 6 || got.SpansByID()[9].ParentID != 3 {
			t.Fatalf("GET /api/trace (%s): tenant %q, %d spans, span 9 under %d", accept, got.Tenant, len(got.Spans), got.SpansByID()[9].ParentID)
		}
	}
	if tr := hist.View().Trace(); tr.Tenant != "hist" || len(tr.Spans) != 6 {
		t.Fatalf("ServerTenant.Trace: tenant %q, %d spans", tr.Tenant, len(tr.Spans))
	}

	// The neighbour's history holds its own batch and nothing of hist's.
	if rec := postTenant(srv, "plain", encodeSpans(t, span(1), span(2)), ContentTypeJSON, "a1"); rec.Code != http.StatusAccepted {
		t.Fatalf("plain tenant POST = %d", rec.Code)
	}
	if tr := plain.View().Trace(); len(tr.Spans) != 2 || tr.Tenant != "plain" {
		t.Fatalf("plain tenant serves %d spans as %q, want 2", len(tr.Spans), tr.Tenant)
	}
	forwarded("neighbour's POST")

	// Reset forgets the dedup window and the count; the history is its
	// owner's to clear.
	hist.Reset()
	if hist.Received() != 0 || plain.Received() != 2 {
		t.Fatalf("after reset: Received hist %d plain %d", hist.Received(), plain.Received())
	}
	if rec := post("after reset", http.StatusAccepted, encodeSpans(t, span(5), span(3)), ContentTypeJSON, "a1", 3, 5); rec.Header().Get("X-Duplicate-Batch") != "" {
		t.Fatal("a batch id from before the reset was still remembered")
	}
	if rec := postTenant(srv, "plain", encodeSpans(t, span(1), span(2)), ContentTypeJSON, "a1"); rec.Header().Get("X-Duplicate-Batch") != "1" {
		t.Fatal("the neighbour's dedup window did not survive the reset")
	}
}

// blockConsumer keeps, for each batch, a decoded copy of the block Ingest
// lent (nil when none), and the spans the batch carried.
type blockConsumer struct {
	historyConsumer
	blocks [][]*Span
	owned  []bool // whether any record of the block was owned
	spans  [][]*Span
}

func (c *blockConsumer) Ingest(batchID uint64, spans []*Span, block []byte) error {
	c.spans = append(c.spans, CloneHeaders(spans))
	if block == nil {
		c.blocks, c.owned = append(c.blocks, nil), append(c.owned, false)
		return nil
	}
	got, owned, rest, err := DecodeSpanBlock(block)
	if err != nil || len(rest) != 0 {
		panic(fmt.Sprintf("the lent block is no span block: %v, %d bytes behind it", err, len(rest)))
	}
	c.blocks = append(c.blocks, got)
	c.owned = append(c.owned, slices.ContainsFunc(owned, func(w uint64) bool { return w != 0 }))
	return nil
}

// A binary batch reaches its consumer with the block it arrived in: the
// same spans, in wire order, every record's owned flag cleared (a tracer
// owns no link). A JSON batch lends none, and neither does a binary one
// whose span ids the server assigned, which the block does not hold.
func TestIngestLendsTheArrivedBlock(t *testing.T) {
	c := &blockConsumer{historyConsumer: historyConsumer{store: &historyStore{}}}
	var srv *Server
	srv = NewServerOn(NewTable(func(key string) *ServerTenant { return srv.NewTenant(key, c) }),
		func(tn *ServerTenant) *ServerTenant { return tn })
	parented := span(4)
	parented.ParentID = 9
	wire := []*Span{span(9), parented, span(2)} // out of canonical order
	owned := append(appendFrameHeader(nil, "", 0), AppendSpanBlock(nil, wire, func(int) bool { return true })...)
	binary.LittleEndian.PutUint32(owned[frameHeaderSize-4:], uint32(len(owned)-frameHeaderSize))
	for _, tc := range []struct {
		name        string
		body        []byte
		contentType string
		lent        bool
	}{
		{"owned frame", owned, ContentTypeBinary, true},
		{"plain frame", AppendBinaryFrameTenant(nil, "", wire), ContentTypeBinary, true},
		{"json", encodeSpans(t, wire...), ContentTypeJSON, false},
		{"assigned id", AppendBinaryFrameTenant(nil, "", []*Span{span(5), {Level: LevelKernel, Name: "anon", Begin: 6, End: 7}}), ContentTypeBinary, false},
	} {
		c.blocks, c.owned, c.spans = nil, nil, nil
		if rec := postTenant(srv, "", tc.body, tc.contentType, ""); rec.Code != http.StatusAccepted {
			t.Fatalf("%s: POST = %d (%s)", tc.name, rec.Code, rec.Body)
		}
		if len(c.spans) != 1 {
			t.Fatalf("%s: the consumer saw %d batches", tc.name, len(c.spans))
		}
		if !tc.lent {
			if c.blocks[0] != nil {
				t.Fatalf("%s: a block was lent for spans it does not hold", tc.name)
			}
			continue
		}
		if c.blocks[0] == nil || c.owned[0] {
			t.Fatalf("%s: lent block %v, owned records %v", tc.name, c.blocks[0] != nil, c.owned[0])
		}
		if !reflect.DeepEqual(c.blocks[0], wire) {
			t.Fatalf("%s: the lent block holds %v, the wire sent %v", tc.name, c.blocks[0], wire)
		}
		if !reflect.DeepEqual(MergeRuns([][]*Span{c.blocks[0]}), c.spans[0]) {
			t.Fatalf("%s: the lent block is not the batch the consumer was handed", tc.name)
		}
	}
}
