package trace

import (
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Server is the wire half of an HTTP tracing server: tracers on other
// processes (or the HTTPCollector in this process) POST spans to
// /api/spans, and a tenant's aggregated trace is read back from /api/trace.
// It decodes, deduplicates and admits batches; the tenants themselves live
// in a table the server is handed (NewServerOn), whose owner builds each
// one around its consumer.
//
// Every request routes to one tenant — named by the X-Tenant header (or
// ?tenant= query parameter, or the batch's own wire tenant; see tenant.go),
// defaulting to DefaultTenant — and each tenant owns an independent
// ServerTenant: its received count, batch-dedup window, consumer and
// in-flight span accounting. A write to a key the table does not hold
// yet opens the tenant; a read never does. POSTs for distinct tenants share
// nothing past admission.
type Server struct {
	mux *http.ServeMux

	// The table the server is handed (NewServerOn): every key, in creation
	// order, and a key's ingest half — opened on first use when open is
	// set, nil for an unknown key when it is not.
	keys   func() []string
	ingest func(key string, open bool) *ServerTenant

	// Admission control (SetAdmission): nil means accept unboundedly, the
	// pre-admission behavior. The byte budget is server-wide (request
	// bodies are a process resource); the span budget and tap backlog are
	// per tenant, so one tenant's overload sheds that tenant without
	// touching its neighbors.
	adm       atomic.Pointer[AdmissionPolicy]
	inflightB atomic.Int64 // request body bytes admitted, response not yet written
}

// ServerTenant is one tenant's ingest half: its ingest counter,
// exactly-once batch-dedup window, admission counters and the consumer its
// accepted batches go to. Resetting, overloading, or crashing one tenant
// never touches another's state.
type ServerTenant struct {
	key string
	srv *Server
	c   Consumer

	received     atomic.Int64 // spans accepted over HTTP since start or the tenant's last reset
	inflightS    atomic.Int64 // spans decoded, not yet landed with this tenant's consumer
	shedRequests atomic.Int64 // requests of this tenant refused by admission control, ever
	shedSpans    atomic.Int64 // spans of this tenant refused after decode, ever

	// Batch dedup state: ids of batches (X-Batch-ID header) the tenant
	// has committed — or is committing right now — so a retried batch
	// whose 202 was lost in transit is acknowledged without re-publishing
	// (the exactly-once half of the HTTPCollector retry contract), while
	// a retry racing its still-decoding original is pushed back with a
	// retryable error rather than falsely acknowledged: the original may
	// yet fail decode (an aborted upload is the usual reason the client
	// retried at all), and an ack here would lose the batch. Bounded
	// FIFO: remembering every batch forever would reintroduce
	// grows-with-total-ingest memory; a retry only needs to land within
	// DedupWindow flushes of the original, which is orders of
	// magnitude beyond any real retry schedule. The window is per tenant:
	// ids only need uniqueness within the tenant that assigned them, and
	// one tenant's flood can never age out another tenant's claims.
	batchMu    sync.Mutex
	seenBatch  map[uint64]bool // id -> committed (false: in flight)
	batchOrder []uint64        // FIFO eviction order for seenBatch
}

// DedupWindow bounds each tenant's batch-dedup memory: the newest
// DedupWindow batch ids are remembered. The durable store persists a window
// of the same size (segio reads this), so a retry of any id the server still
// remembers stays a duplicate across a restart.
const DedupWindow = 4096

// batchIDHeader carries the client-assigned batch id that makes retried
// span batches idempotent. Batches without it are accepted unconditionally
// (at-least-once, the pre-dedup wire behavior).
const batchIDHeader = "X-Batch-Id"

// NewServerOn returns a tracing server over tb, a table its caller owns:
// each request reaches the ingest half half picks from the tenant it
// names, and a write opens that tenant (tb.Open) if tb does not hold it
// yet. tb's open function builds each ingest half with NewTenant.
func NewServerOn[T any](tb *Table[T], half func(T) *ServerTenant) *Server {
	return route(newServer(), tb, half)
}

func newServer() *Server {
	s := &Server{mux: http.NewServeMux()}
	s.mux.HandleFunc("/api/spans", s.handleSpans)
	s.mux.HandleFunc("/api/trace", s.handleTrace)
	return s
}

// route points s at tb and returns s.
func route[T any](s *Server, tb *Table[T], half func(T) *ServerTenant) *Server {
	s.keys = tb.Keys
	s.ingest = func(key string, open bool) *ServerTenant {
		if open {
			return half(tb.Open(key))
		}
		if t, ok := tb.Lookup(key); ok {
			return half(t)
		}
		return nil
	}
	return s
}

// Consumer is the owner of a tenant's spans: every batch the tenant
// accepts goes to it, and /api/trace serves what it holds — the tenant's
// ingest half keeps no spans itself. Batches from concurrent requests reach
// Ingest in an unspecified relative order, so a Consumer must be safe for
// concurrent use.
type Consumer interface {
	// Ingest takes one accepted batch, with its final span ids, before the
	// 202 is written: the spans themselves, which the consumer may link or
	// keep. block, when not nil, is the same batch as the span block it
	// arrived in — its records in wire order, none owned — lent until Ingest
	// returns, for a durable consumer to log as it is; nil when the batch
	// came as JSON or the server assigned span ids. A non-nil error refuses
	// the batch with a retryable 503 and the consumer keeps nothing of it — a
	// durable consumer's WAL append failed.
	Ingest(batchID uint64, spans []*Span, block []byte) error

	// Backlog returns the spans the consumer holds but has not yet absorbed,
	// which count against the tenant's share of
	// AdmissionPolicy.MaxInflightSpans (OverloadStats.TapDepth).
	Backlog() int

	// View is what GET /api/trace serves: every span an acknowledged batch
	// carried, in canonical order with ParentIDs as published, pinned so
	// that ingest may continue while it is written
	// (core.StreamCorrelator.View, raw).
	View() View
}

// NewTenant returns a fresh ingest half for the tenant named key, whose
// accepted batches go to c, for the open function of the table s routes
// through.
func (s *Server) NewTenant(key string, c Consumer) *ServerTenant {
	return &ServerTenant{key: key, srv: s, c: c}
}

// Key returns the tenant's key.
func (t *ServerTenant) Key() string { return t.key }

// View returns the consumer's view, under the tenant key.
func (t *ServerTenant) View() View {
	v := t.c.View()
	v.Tenant = t.key
	return v
}

// Received returns the count of spans the tenant accepted over HTTP since
// the server started or since the tenant's last reset.
func (t *ServerTenant) Received() int { return int(t.received.Load()) }

// AdmissionPolicy bounds what the server will hold in flight before it
// sheds new span batches with 429 Too Many Requests instead of accepting
// unboundedly. Shed responses carry a Retry-After hint and nothing else
// (the shed counters are OverloadStats), and a shed batch is never
// partially ingested: its batch id stays unclaimed,
// so the client's retry (HTTPCollector re-ships the batch with the same
// id after backoff) lands exactly once when admitted.
type AdmissionPolicy struct {
	// MaxInflightBytes bounds the request body bytes admitted concurrently
	// (reserved from Content-Length before the body is read, released when
	// the request completes; a single request may exceed the budget only
	// when it is alone, so an oversized batch cannot starve forever). Each
	// admitted body is additionally capped at this size, and a POST with no
	// Content-Length (chunked) has nothing to reserve and is refused with
	// 411 before its body is read. Zero is unlimited.
	MaxInflightBytes int64

	// MaxInflightSpans bounds, per tenant, the decoded spans not yet
	// landed with the tenant's consumer plus the consumer's Backlog — the
	// span population admission has accepted but the consumer has not
	// absorbed. The budget is per tenant deliberately: an overdriven tenant
	// saturates its own budget and sheds while a quiet tenant's batches
	// keep landing first-try. Zero is unlimited.
	MaxInflightSpans int

	// RetryAfter is the hint sent on 429 and 503 responses. Values of a
	// second or more render as standard integer seconds (rounded up);
	// smaller values render as a non-standard decimal ("0.05") that
	// HTTPCollector understands. Zero defaults to one second.
	RetryAfter time.Duration
}

// SetAdmission installs (or, with a zero policy, effectively disables)
// admission control. Safe to call while serving.
func (s *Server) SetAdmission(p AdmissionPolicy) { s.adm.Store(&p) }

// OverloadStats is a point-in-time snapshot of admission state, for
// observability and tests. From Server.OverloadStats the per-tenant
// figures are summed over every tenant; ServerTenant.OverloadStats
// scopes them to one tenant (with the server-wide byte figures).
type OverloadStats struct {
	InflightBytes int64 // request body bytes currently admitted (server-wide)
	InflightSpans int64 // decoded spans not yet landed with the consumer
	TapDepth      int   // the consumer's Backlog
	ShedRequests  int64 // requests refused by admission control, ever
	ShedSpans     int64 // spans refused after decode, ever
}

// OverloadStats returns the server's current admission counters, summed
// across tenants.
func (s *Server) OverloadStats() OverloadStats {
	st := OverloadStats{InflightBytes: s.inflightB.Load()}
	for _, key := range s.keys() {
		ts := s.ingest(key, false).OverloadStats()
		st.InflightSpans += ts.InflightSpans
		st.TapDepth += ts.TapDepth
		st.ShedRequests += ts.ShedRequests
		st.ShedSpans += ts.ShedSpans
	}
	return st
}

// OverloadStats returns the tenant's admission counters. InflightBytes is
// the server-wide figure (bodies are admitted before their tenant is
// known in every case the byte budget exists to bound).
func (t *ServerTenant) OverloadStats() OverloadStats {
	return OverloadStats{
		InflightBytes: t.srv.inflightB.Load(),
		InflightSpans: t.inflightS.Load(),
		TapDepth:      t.c.Backlog(),
		ShedRequests:  t.shedRequests.Load(),
		ShedSpans:     t.shedSpans.Load(),
	}
}

// retryAfterValue renders a Retry-After hint: standard integer seconds
// (rounded up) at a second and above, non-standard decimal seconds below.
func retryAfterValue(d time.Duration) string {
	if d <= 0 {
		d = time.Second
	}
	if d >= time.Second {
		return strconv.Itoa(int(math.Ceil(d.Seconds())))
	}
	return strconv.FormatFloat(d.Seconds(), 'g', 3, 64)
}

// pushBack answers a batch the client should retry later: code, with the
// retry hint as Retry-After, so clients can pace their retries.
func pushBack(w http.ResponseWriter, code int, retryAfter time.Duration, msg string) {
	w.Header().Set("Retry-After", retryAfterValue(retryAfter))
	http.Error(w, msg, code)
}

// shed refuses a span batch: count it against its tenant, and answer 429.
func shed(w http.ResponseWriter, tn *ServerTenant, retryAfter time.Duration, spans int64, msg string) {
	tn.shedRequests.Add(1)
	tn.shedSpans.Add(spans)
	pushBack(w, http.StatusTooManyRequests, retryAfter, msg)
}

// retryAfterHint is the Retry-After the push-back paths use: the
// configured admission hint, or the one-second default when admission is
// not configured (the 503 batch-in-flight push-back predates admission
// control and must carry a hint either way).
func (s *Server) retryAfterHint() time.Duration {
	if adm := s.adm.Load(); adm != nil {
		return adm.RetryAfter
	}
	return 0
}

// SeedBatches preloads the tenant's batch-dedup window with ids recovered
// from its durable store, marking each committed: a client retrying a
// batch the crashed process already acknowledged gets the duplicate ack
// instead of a second publish — exactly-once across restarts, per tenant.
func (t *ServerTenant) SeedBatches(ids []uint64) {
	t.batchMu.Lock()
	defer t.batchMu.Unlock()
	if t.seenBatch == nil {
		t.seenBatch = make(map[uint64]bool)
	}
	for _, id := range ids {
		if id == 0 {
			continue
		}
		if _, ok := t.seenBatch[id]; !ok {
			t.batchOrder = append(t.batchOrder, id)
		}
		t.seenBatch[id] = true
	}
	for len(t.batchOrder) > DedupWindow {
		delete(t.seenBatch, t.batchOrder[0])
		t.batchOrder = t.batchOrder[1:]
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// serverAssignedIDBit tags span IDs the server assigned at ingress.
// Keeping them in the upper half of the ID space means they cannot collide
// with client-allocated IDs, which grow from small per-process counters.
const serverAssignedIDBit = uint64(1) << 63

// spanDecoder picks the batch decoder for a POST's Content-Type: the
// framed binary format (ContentTypeBinary), which lends the frame it read
// (decodeFrame), JSON (ContentTypeJSON, or no Content-Type at all, the
// historical wire default), which lends none, or neither — the caller
// answers 415 before the batch id is claimed.
func spanDecoder(contentType string) (func(io.Reader) (*Trace, *[]byte, error), error) {
	if contentType == "" {
		return decodeJSON, nil
	}
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return nil, fmt.Errorf("trace: bad Content-Type %q: %v", contentType, err)
	}
	switch mt {
	case ContentTypeJSON:
		return decodeJSON, nil
	case ContentTypeBinary:
		return decodeFrame, nil
	}
	return nil, fmt.Errorf("trace: unsupported span Content-Type %q (want %s or %s)", mt, ContentTypeBinary, ContentTypeJSON)
}

// decodeJSON is DecodeJSON for spanDecoder: a JSON batch lends no frame.
func decodeJSON(r io.Reader) (*Trace, *[]byte, error) {
	t, err := DecodeJSON(r)
	return t, nil, err
}

// RequestTenant extracts the tenant key a request explicitly names — the
// X-Tenant header first, then a ?tenant= query parameter — validated but
// not canonicalized: "" means the request named no tenant (the caller
// falls back to the batch's wire tenant, then DefaultTenant). Endpoints
// outside this package (a profiling server's /api/correlated) route with
// the same rule.
func RequestTenant(r *http.Request) (string, error) {
	key := r.Header.Get(TenantHeader)
	if key == "" {
		key = r.URL.Query().Get("tenant")
	}
	if err := ValidateTenant(key); err != nil {
		return "", err
	}
	return key, nil
}

// claimFor runs the tenant's batch-dedup claim, writing the duplicate-ack
// or still-in-flight response itself. It returns true when the caller
// holds a fresh claim (or the batch carries no id) and should proceed to
// commit.
func (s *Server) claimFor(w http.ResponseWriter, tn *ServerTenant, batchID uint64) bool {
	if batchID == 0 {
		return true
	}
	switch tn.claimBatch(batchID) {
	case batchCommitted:
		// The batch already committed and only its 202 was lost:
		// accept again without publishing, so the retry is idempotent.
		w.Header().Set("X-Duplicate-Batch", "1")
		w.WriteHeader(http.StatusAccepted)
		return false
	case batchInFlight:
		// The original request is still decoding (the client timed out
		// and retried while it ran). Acknowledging now would lose the
		// batch if the original turns out to be an aborted upload, so
		// push the retry back: a non-202 keeps it buffered in the
		// collector for the next Flush, by which time the original has
		// either committed (-> duplicate ack) or failed (-> publish).
		// The retry hint paces the client like a 429 does.
		pushBack(w, http.StatusServiceUnavailable, s.retryAfterHint(), "trace: batch still in flight, retry later")
		return false
	}
	// First claim: committing falls to this request. The claim is taken
	// before anything can publish, so no concurrent retry can publish the
	// same batch twice.
	return true
}

// The body read deadline of a span POST that holds a byte reservation:
// bodyReadGrace, plus its Content-Length at minBodyBytesPerSec.
var bodyReadGrace = 10 * time.Second // a variable for the tests, which cannot wait that long

const minBodyBytesPerSec = 64 << 10

// handleSpans ingests a POSTed span batch, JSON or framed binary by
// Content-Type, routed to the tenant the request names (X-Tenant header
// or ?tenant=), or the batch's wire tenant when the request names none,
// or DefaultTenant — the pre-tenant behavior — when neither does. The
// wire contract: spans should carry IDs that are nonzero and unique
// within the publishing process and tenant (ID 0 means "no span"
// everywhere — ParentID and correlation lookups treat it as absent).
// Spans that arrive with a zero ID are assigned fresh server-side IDs
// rather than rejected: left at zero, all zero-ID spans would collide on
// one ID in every lookup by ID. A reassigned span was never
// referenceable by its old ID, so no ParentID link can break; the
// assigned IDs carry serverAssignedIDBit so they stay out of the clients'
// ID space.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	// Content negotiation before the batch id is claimed: a 415 must leave
	// the id unclaimed so the client's immediate JSON re-ship of the same
	// batch is admitted fresh — exactly-once across the encoding fallback.
	decode, err := spanDecoder(r.Header.Get("Content-Type"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnsupportedMediaType)
		return
	}
	explicit, err := RequestTenant(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The working tenant before the body is decoded: the explicitly named
	// one, else DefaultTenant (where every tenantless legacy client
	// lands). A wire-level tenant inside the batch can still re-route a
	// request that named none — handled after decode.
	tn := s.ingest(explicit, true)
	// Admission, phase 1 — before the body is touched, so a shed request
	// costs no decode and claims no batch id (the client's retry stays
	// exactly-once). The byte budget is server-wide.
	adm := s.adm.Load()
	if adm != nil && adm.MaxInflightBytes > 0 {
		n := r.ContentLength
		if n < 0 {
			// A chunked body declares nothing to reserve, so any number of
			// them would be in flight beside a full budget.
			http.Error(w, "trace: a span POST needs a Content-Length while an in-flight byte budget is set", http.StatusLengthRequired)
			return
		}
		if cur := s.inflightB.Add(n); cur > adm.MaxInflightBytes && cur != n {
			// Over budget with other requests in flight. (Alone — cur
			// == n — even an oversized body is admitted, so one big
			// batch cannot starve forever.)
			s.inflightB.Add(-n)
			shed(w, tn, adm.RetryAfter, 0, "trace: in-flight byte budget exhausted, retry later")
			return
		}
		defer s.inflightB.Add(-n)
		// The reservation is held until the body has been read, so the
		// body has a deadline: a grace period plus the time its declared
		// length takes at the slowest rate a publisher is allowed. A
		// client that trickles is cut — the read fails, the request is a
		// 400 and its bytes and batch id are free again — instead of
		// pinning a budget every tenant shares. (A ResponseWriter with no
		// connection behind it, a test's recorder, supports no deadline
		// and has no slow client to cut.) The deadline is never cleared
		// here: net/http clears it when the body reaches its end, so a
		// publish that then waits on its tap is not cut, and after a
		// read that failed it has to stand, or net/http's drain of the
		// unread body, which comes before the answer, would wait forever.
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(bodyReadGrace + time.Duration(n)*time.Second/minBodyBytesPerSec))
		// A body must not exceed its Content-Length reservation, or the
		// whole budget: decode fails cleanly instead of growing past
		// the admitted bytes.
		limit := adm.MaxInflightBytes
		if n > 0 && n < limit {
			limit = n
		}
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	batchID, err := parseBatchID(r.Header.Get(batchIDHeader))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.claimFor(w, tn, batchID) {
		return
	}
	committed := false
	claimed := tn
	if batchID != 0 {
		// Release the claim on every exit that did not commit — decode
		// failures and panics escaping Publish (a tap Collector may throw;
		// net/http recovers them above us) alike. An orphaned in-flight id
		// would wedge the batch, and everything queued behind it in the
		// collector, behind 503s forever. The claim may migrate to the
		// batch's wire tenant below, so release wherever it lives now.
		defer func() {
			if !committed {
				claimed.unclaimBatch(batchID)
			}
		}()
	}
	// A decode failure — malformed JSON or a corrupt/truncated binary
	// frame — is a clean 400: both decoders return no spans on error, so
	// nothing is published, and the deferred unclaim releases the batch id
	// for a corrected retry. Never a partial publish.
	t, frame, err := decode(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A binary batch's frame is lent down to the consumer, and goes back to
	// its pool only once the request is through with it.
	defer releaseFrame(frame)
	var block []byte
	if frame != nil {
		block = *frame
	}
	// Ingress validation: a span that ends before it begins, or carries a
	// metric no JSON view can encode (NaN or ±Inf, which only the binary
	// wire can send), refuses its whole batch the same way (End == Begin, a
	// zero-length event, is valid). The index counts in begin order, the
	// order decoding leaves. Stored data is not re-checked: recovery reads
	// what earlier servers accepted.
	for i, sp := range t.Spans {
		if why := invalidSpan(sp); why != "" {
			http.Error(w, fmt.Sprintf("trace: span %d of the batch (id %d) %s", i, sp.ID, why), http.StatusBadRequest)
			return
		}
	}
	if wire := t.Tenant; wire != "" {
		if explicit != "" {
			// Both the request and the batch name a tenant: they must
			// agree, or the client is routing one batch two ways.
			if CanonicalTenant(wire) != CanonicalTenant(explicit) {
				http.Error(w, fmt.Sprintf("trace: %s header %q contradicts wire tenant %q",
					TenantHeader, explicit, wire), http.StatusBadRequest)
				return
			}
		} else if CanonicalTenant(wire) != tn.key {
			// The request named no tenant but the batch does (a frame
			// posted by a header-less intermediary): re-route, moving the
			// batch claim to the wire tenant's dedup window.
			next := s.ingest(wire, true)
			if batchID != 0 {
				if !s.claimFor(w, next, batchID) {
					return
				}
				claimed.unclaimBatch(batchID)
				claimed = next
			}
			tn = next
		}
	}
	// Admission, phase 2 — the span budget, now that the batch's size and
	// tenant are known: the tenant's decoded-but-unlanded spans plus its
	// consumer's backlog must fit MaxInflightSpans. A shed here released
	// its batch claim (the deferred unclaim above), so the retry is
	// admitted fresh. A batch is admitted alone even when oversized, for
	// the same liveness reason as the byte budget.
	if adm != nil && adm.MaxInflightSpans > 0 {
		n, depth := int64(len(t.Spans)), int64(tn.c.Backlog())
		cur := tn.inflightS.Add(n)
		if cur+depth > int64(adm.MaxInflightSpans) && !(cur == n && depth == 0) {
			tn.inflightS.Add(-n)
			shed(w, tn, adm.RetryAfter, n, "trace: in-flight span budget exhausted, retry later")
			return
		}
		defer tn.inflightS.Add(-n)
	}
	for _, sp := range t.Spans {
		if sp.ID == 0 {
			sp.ID = NewSpanID() | serverAssignedIDBit
			block = nil // it holds the id the tracer sent: the spans are the batch now
		}
	}
	// The batch (with its final span ids) reaches the consumer before the
	// 202 is written — durable, its write-ahead log first. A refusal is
	// retryable: the deferred unclaim releases the batch id, so the client's
	// retry gets a fresh claim once the consumer recovers.
	if err := tn.c.Ingest(batchID, t.Spans, block); err != nil {
		pushBack(w, http.StatusServiceUnavailable, s.retryAfterHint(), "trace: durable log append failed, retry later")
		return
	}
	tn.received.Add(int64(len(t.Spans)))
	if batchID != 0 {
		tn.commitBatch(batchID)
		committed = true
	}
	w.WriteHeader(http.StatusAccepted)
}

// invalidSpan says why ingress refuses sp, or "" when it does not.
func invalidSpan(sp *Span) string {
	if sp.End < sp.Begin {
		return fmt.Sprintf("ends before it begins: end_ns %d < begin_ns %d", sp.End, sp.Begin)
	}
	for _, m := range sp.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Sprintf("has a non-finite metric: %s = %v", m.Key, m.Value)
		}
	}
	return ""
}

// parseBatchID decodes the hex batch id header; empty means "no id". An
// explicit id of 0 is rejected rather than silently treated as id-less —
// a zero-based client counter would otherwise believe its first batch has
// dedup when it does not.
func parseBatchID(h string) (uint64, error) {
	if h == "" {
		return 0, nil
	}
	id, err := strconv.ParseUint(h, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad %s header %q: %w", batchIDHeader, h, err)
	}
	if id == 0 {
		return 0, fmt.Errorf("trace: %s must be nonzero", batchIDHeader)
	}
	return id, nil
}

// batchClaim is the outcome of claimBatch.
type batchClaim int

const (
	batchClaimed   batchClaim = iota // fresh id: the caller commits it
	batchInFlight                    // another request holds the claim, outcome unknown
	batchCommitted                   // already published: acknowledge as duplicate
)

// claimBatch atomically claims a batch id for commit in this tenant's
// dedup window, or reports the standing claim's state. Oldest remembered
// ids age out past the FIFO bound.
func (t *ServerTenant) claimBatch(id uint64) batchClaim {
	t.batchMu.Lock()
	defer t.batchMu.Unlock()
	if t.seenBatch == nil {
		t.seenBatch = make(map[uint64]bool)
	}
	if committed, ok := t.seenBatch[id]; ok {
		if committed {
			return batchCommitted
		}
		return batchInFlight
	}
	t.seenBatch[id] = false
	t.batchOrder = append(t.batchOrder, id)
	rotated := 0
	for len(t.batchOrder) > DedupWindow && rotated < len(t.batchOrder) {
		old := t.batchOrder[0]
		if !t.seenBatch[old] {
			// Still in flight: evicting it would let a concurrent retry
			// re-claim the id and publish the batch twice. Rotate it to
			// the back — it is actively being committed, so it is
			// effectively the freshest id — and keep looking for a
			// committed one to evict. The rotation count bounds the loop
			// when every remembered id is in flight at once (the table
			// then exceeds the cap by the in-flight count, which
			// admission control bounds).
			t.batchOrder = append(t.batchOrder[1:], old)
			rotated++
			continue
		}
		delete(t.seenBatch, old)
		t.batchOrder = t.batchOrder[1:]
	}
	return batchClaimed
}

// commitBatch marks a claimed batch as published: retries of it are
// duplicates from here on.
func (t *ServerTenant) commitBatch(id uint64) {
	t.batchMu.Lock()
	defer t.batchMu.Unlock()
	if _, ok := t.seenBatch[id]; ok {
		t.seenBatch[id] = true
	}
}

// unclaimBatch releases a claim whose batch never committed. The id comes
// out of the FIFO order too: a corrected retry re-claims and re-appends
// it, and a stale first entry would otherwise evict the live committed
// record early when it reached the FIFO head. The linear scan is fine —
// the slice is bounded and decode failures are the exception.
func (t *ServerTenant) unclaimBatch(id uint64) {
	t.batchMu.Lock()
	defer t.batchMu.Unlock()
	delete(t.seenBatch, id)
	for i, v := range t.batchOrder {
		if v == id {
			t.batchOrder = append(t.batchOrder[:i], t.batchOrder[i+1:]...)
			break
		}
	}
}

// AcceptsBinary reports whether an Accept header explicitly lists the
// binary span media type (ContentTypeBinary) as acceptable: a zero weight
// ("q=0", "q=0.000") means "not acceptable" (RFC 9110) and does not count.
// JSON remains the default for everything else (browsers, curl, old
// clients); trace endpoints outside this package negotiate with the same
// rule.
func AcceptsBinary(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, params, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil || mt != ContentTypeBinary {
			continue
		}
		if q, err := strconv.ParseFloat(params["q"], 64); err == nil && q == 0 {
			continue
		}
		return true
	}
	return false
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	key, err := RequestTenant(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A read must not open a tenant: an unknown (or not-yet-used) tenant
	// serves the empty trace it would have anyway, without opening a store
	// for a typo.
	v := View{Tenant: CanonicalTenant(key)}
	if tn := s.ingest(key, false); tn != nil {
		v = tn.View()
	}
	defer v.Close()
	WriteView(w, r, v)
}

// Reset clears the tenant's ingest counter and batch-dedup window (the
// history is its owner's to clear). The counter resets with the spans it
// counted: Received() describes the current aggregation, not the tenant's
// lifetime. The remembered batch ids go with it — a post-reset re-ship of an
// old batch is a new aggregation's ingest, not a duplicate of anything it
// holds. Only this tenant is touched: a neighbor's dedup window and received
// count survive unchanged (the /api/reset contract README documents).
func (t *ServerTenant) Reset() {
	t.received.Store(0)
	t.batchMu.Lock()
	t.seenBatch = nil
	t.batchOrder = nil
	t.batchMu.Unlock()
}
