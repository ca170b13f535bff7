package trace

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	mrand "math/rand"
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
// one and wires its consumers.
//
// Every request routes to one tenant — named by the X-Tenant header (or
// ?tenant= query parameter, or the batch's own wire tenant; see tenant.go),
// defaulting to DefaultTenant — and each tenant owns an independent
// ServerTenant: its received count, batch-dedup window, tap, durable sink,
// and in-flight span accounting. A write to a key the table does not hold
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
	adm          atomic.Pointer[AdmissionPolicy]
	inflightB    atomic.Int64 // request body bytes admitted, response not yet written
	shedRequests atomic.Int64 // requests refused by admission control, ever (all tenants)
	shedSpans    atomic.Int64 // spans refused after decode (span budget), ever (all tenants)
}

// ServerTenant is one tenant's ingest half: its ingest counter,
// exactly-once batch-dedup window, admission counters and consumer wiring
// (tap, durable sink). Resetting, overloading, or crashing one tenant never
// touches another's state.
type ServerTenant struct {
	key string
	srv *Server

	history  func() *Trace // what /api/trace serves: the consumer's store
	mem      *Memory       // NewServer's raw store (benchapi.go); nil otherwise
	received atomic.Int64  // spans accepted over HTTP since start or the tenant's last reset

	tap          atomic.Pointer[Collector]
	tapQ         atomic.Pointer[AsyncTap] // SetTapAsync's queue, for admission
	durable      atomic.Pointer[DurableSink]
	inflightS    atomic.Int64 // spans decoded, not yet landed with this tenant's consumers
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
	// maxRememberedBatches flushes of the original, which is orders of
	// magnitude beyond any real retry schedule. The window is per tenant:
	// ids only need uniqueness within the tenant that assigned them, and
	// one tenant's flood can never age out another tenant's claims.
	batchMu    sync.Mutex
	seenBatch  map[uint64]bool // id -> committed (false: in flight)
	batchOrder []uint64        // FIFO eviction order for seenBatch
}

// maxRememberedBatches bounds each tenant's batch-dedup memory.
const maxRememberedBatches = 4096

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

// NewTenant returns a fresh ingest half for the tenant named key, for the
// open function of the table s routes through. history is what GET
// /api/trace serves for the tenant: the store its consumer keeps, holding
// every span an acknowledged batch carried, in canonical order with
// ParentIDs as published, safe to encode while ingest continues
// (core.StreamCorrelator.SnapshotRaw) — the tenant keeps no spans itself.
func (s *Server) NewTenant(key string, history func() *Trace) *ServerTenant {
	return &ServerTenant{key: key, srv: s, history: history}
}

// Key returns the tenant's key.
func (t *ServerTenant) Key() string { return t.key }

// publish hands a batch to the tenant's consumers: the durable sink first,
// when one is set — its error refuses the batch, nothing downstream sees
// it — then a NewServer tenant's raw store, then the tap.
func (t *ServerTenant) publish(batchID uint64, spans []*Span) error {
	if d := t.durable.Load(); d != nil {
		if err := (*d).IngestLogged(batchID, spans); err != nil {
			return err
		}
	}
	if t.mem != nil {
		t.mem.Publish(spans...)
	}
	if tap := t.tap.Load(); tap != nil {
		(*tap).Publish(spans...)
	}
	return nil
}

// Trace returns the tenant's history, tagged with the tenant key.
func (t *ServerTenant) Trace() *Trace {
	tr := t.history()
	tr.Tenant = t.key
	return tr
}

// Received returns the count of spans the tenant accepted over HTTP since
// the server started or since the tenant's last reset.
func (t *ServerTenant) Received() int { return int(t.received.Load()) }

// AdmissionPolicy bounds what the server will hold in flight before it
// sheds new span batches with 429 Too Many Requests instead of accepting
// unboundedly. Shed responses carry a Retry-After hint plus the
// X-Shed-Spans / X-Shed-Requests / X-Tap-Queue-Depth stats headers, and a
// shed batch is never partially ingested: its batch id stays unclaimed,
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
	// landed with the tenant's consumers plus the tenant's async tap
	// backlog (ServerTenant.SetTapAsync) — the span population admission
	// has accepted but the online consumer has not absorbed. The budget
	// is per tenant deliberately: an overdriven tenant saturates its own
	// budget and sheds while a quiet tenant's batches keep landing
	// first-try. Zero is unlimited.
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

// SetTapAsync attaches dst as the tenant's tap behind a bounded queue
// (NewAsyncTap): publishes enqueue and return instead of running the
// consumer inline. The queue is registered with admission control, so its
// backlog counts against the tenant's share of
// AdmissionPolicy.MaxInflightSpans and is reported in the
// X-Tap-Queue-Depth header. A full queue holds the handler, whose batch
// stays in flight, so the budgets fill and admission sheds new POSTs. See
// AsyncTap for the backpressure and ordering contract. Close the returned
// tap when detaching — SetTap(nil) alone leaves the worker running; a later
// SetTap may put a wrapper around it (the queue stays registered).
func (t *ServerTenant) SetTapAsync(dst Collector, opts TapOptions) *AsyncTap {
	tap := NewAsyncTap(dst, opts)
	t.tapQ.Store(tap)
	t.SetTap(tap)
	return tap
}

// OverloadStats is a point-in-time snapshot of admission state, for
// observability and tests. From Server.OverloadStats the per-tenant
// figures are summed over every tenant; ServerTenant.OverloadStats
// scopes them to one tenant (with the server-wide byte figures).
type OverloadStats struct {
	InflightBytes int64 // request body bytes currently admitted (server-wide)
	InflightSpans int64 // decoded spans not yet landed with the consumers
	TapDepth      int   // async tap backlog, if attached
	ShedRequests  int64 // requests refused by admission control, ever
	ShedSpans     int64 // spans refused after decode, ever
}

// OverloadStats returns the server's current admission counters, summed
// across tenants.
func (s *Server) OverloadStats() OverloadStats {
	st := OverloadStats{
		InflightBytes: s.inflightB.Load(),
		ShedRequests:  s.shedRequests.Load(),
		ShedSpans:     s.shedSpans.Load(),
	}
	for _, key := range s.keys() {
		t := s.ingest(key, false)
		st.InflightSpans += t.inflightS.Load()
		if tq := t.tapQ.Load(); tq != nil {
			st.TapDepth += tq.Depth()
		}
	}
	return st
}

// OverloadStats returns the tenant's admission counters. InflightBytes is
// the server-wide figure (bodies are admitted before their tenant is
// known in every case the byte budget exists to bound).
func (t *ServerTenant) OverloadStats() OverloadStats {
	st := OverloadStats{
		InflightBytes: t.srv.inflightB.Load(),
		InflightSpans: t.inflightS.Load(),
		ShedRequests:  t.shedRequests.Load(),
		ShedSpans:     t.shedSpans.Load(),
	}
	if tq := t.tapQ.Load(); tq != nil {
		st.TapDepth = tq.Depth()
	}
	return st
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

// overloadHeaders stamps the retry hint and shed stats on a pushed-back
// response, so clients can pace retries and operators can see shedding.
// The shed counters are server-wide; the tap depth is the addressed
// tenant's (when known — nil tn omits it).
func (s *Server) overloadHeaders(h http.Header, tn *ServerTenant, retryAfter time.Duration) {
	h.Set("Retry-After", retryAfterValue(retryAfter))
	h.Set("X-Shed-Requests", strconv.FormatInt(s.shedRequests.Load(), 10))
	h.Set("X-Shed-Spans", strconv.FormatInt(s.shedSpans.Load(), 10))
	if tn != nil {
		if tq := tn.tapQ.Load(); tq != nil {
			h.Set("X-Tap-Queue-Depth", strconv.Itoa(tq.Depth()))
		}
	}
}

// shed refuses a span batch: count it (server-wide and, when the tenant
// is known, against the tenant), stamp the overload headers, and answer
// 429.
func (s *Server) shed(w http.ResponseWriter, tn *ServerTenant, retryAfter time.Duration, spans int64, msg string) {
	s.shedRequests.Add(1)
	if spans > 0 {
		s.shedSpans.Add(spans)
	}
	if tn != nil {
		tn.shedRequests.Add(1)
		if spans > 0 {
			tn.shedSpans.Add(spans)
		}
	}
	s.overloadHeaders(w.Header(), tn, retryAfter)
	http.Error(w, msg, http.StatusTooManyRequests)
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

// DurableSink is a consumer with an acknowledgment barrier: IngestLogged
// must make the batch durable (fsynced to a write-ahead log) before
// returning nil — only then does the server publish the spans and write
// the 202 that lets the client drop the batch. A non-nil error refuses
// the batch retryably. core.StreamCorrelator.IngestLogged is the
// intended implementation.
type DurableSink interface {
	IngestLogged(batchID uint64, spans []*Span) error
}

// SetDurable installs the durable sink every accepted span batch of this
// tenant must reach before it is acknowledged. In durable mode the sink
// replaces the tap as the streaming consumer — do not attach the same
// consumer as both, or it sees every span twice. A nil sink detaches.
// Safe to call while serving.
func (t *ServerTenant) SetDurable(d DurableSink) {
	if d == nil {
		t.durable.Store(nil)
		return
	}
	t.durable.Store(&d)
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
	for len(t.batchOrder) > maxRememberedBatches {
		delete(t.seenBatch, t.batchOrder[0])
		t.batchOrder = t.batchOrder[1:]
	}
}

// SetTap registers a collector that receives every span the tenant
// accepts over HTTP (after server-side ID assignment), each exactly once,
// after the durable sink has logged it — the hook an online consumer (e.g.
// a core.StreamCorrelator) attaches to. Batches from concurrent publishers
// reach it in an unspecified relative order, so a tap must be safe for
// concurrent use. It is handed the decoded spans themselves: a tap that
// mutates them is the store the tenant's history reads, or works on its
// own copies. Spans published before SetTap are not replayed. A nil tap
// detaches. Safe to call while serving.
func (t *ServerTenant) SetTap(c Collector) {
	if c == nil {
		t.tap.Store(nil)
		return
	}
	t.tap.Store(&c)
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
// framed binary format (ContentTypeBinary), JSON (ContentTypeJSON, or no
// Content-Type at all, the historical wire default), or neither — the
// caller answers 415 so a newer client knows to fall back to JSON.
func spanDecoder(contentType string) (func(io.Reader) (*Trace, error), error) {
	if contentType == "" {
		return DecodeJSON, nil
	}
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return nil, fmt.Errorf("trace: bad Content-Type %q: %v", contentType, err)
	}
	switch mt {
	case ContentTypeJSON:
		return DecodeJSON, nil
	case ContentTypeBinary:
		return DecodeBinary, nil
	}
	return nil, fmt.Errorf("trace: unsupported span Content-Type %q (want %s or %s)", mt, ContentTypeBinary, ContentTypeJSON)
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
		s.overloadHeaders(w.Header(), tn, s.retryAfterHint())
		http.Error(w, "trace: batch still in flight, retry later", http.StatusServiceUnavailable)
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
			s.shed(w, tn, adm.RetryAfter, 0, "trace: in-flight byte budget exhausted, retry later")
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
	t, err := decode(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
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
	// async tap backlog must fit MaxInflightSpans. A shed here released
	// its batch claim (the deferred unclaim above), so the retry is
	// admitted fresh. A batch is admitted alone even when oversized, for
	// the same liveness reason as the byte budget.
	if adm != nil && adm.MaxInflightSpans > 0 {
		n := int64(len(t.Spans))
		depth := int64(0)
		if tq := tn.tapQ.Load(); tq != nil {
			depth = int64(tq.Depth())
		}
		cur := tn.inflightS.Add(n)
		if cur+depth > int64(adm.MaxInflightSpans) && !(cur == n && depth == 0) {
			tn.inflightS.Add(-n)
			s.shed(w, tn, adm.RetryAfter, n, "trace: in-flight span budget exhausted, retry later")
			return
		}
		defer tn.inflightS.Add(-n)
	}
	for _, sp := range t.Spans {
		if sp.ID == 0 {
			sp.ID = NewSpanID() | serverAssignedIDBit
		}
	}
	// Durability barrier: the batch (with its final span ids) reaches the
	// tenant's write-ahead log before anything downstream sees it and
	// before the 202 is written. A log failure is refused retryably — the
	// deferred unclaim releases the batch id, so the client's retry gets a
	// fresh claim once the sink recovers.
	if err := tn.publish(batchID, t.Spans); err != nil {
		s.overloadHeaders(w.Header(), tn, s.retryAfterHint())
		http.Error(w, "trace: durable log append failed, retry later", http.StatusServiceUnavailable)
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
	for len(t.batchOrder) > maxRememberedBatches && rotated < len(t.batchOrder) {
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
	tr := &Trace{Tenant: CanonicalTenant(key)}
	if tn := s.ingest(key, false); tn != nil {
		tr = tn.Trace()
	}
	WriteTrace(w, r, tr)
}

// WriteTrace answers a GET with tr in the encoding the request's Accept
// header negotiates (AcceptsBinary: binary when listed, JSON otherwise) —
// the one reply every trace-serving endpoint gives, /api/trace here and a
// profiling server's /api/correlated alike.
func WriteTrace(w http.ResponseWriter, r *http.Request, tr *Trace) {
	encode, contentType := tr.EncodeJSON, ContentTypeJSON
	if AcceptsBinary(r.Header.Get("Accept")) {
		encode, contentType = tr.EncodeBinary, ContentTypeBinary
	}
	w.Header().Set("Content-Type", contentType)
	if err := encode(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Reset clears the tenant's ingest counter and batch-dedup window (the
// history is its owner's to clear). The counter resets with the spans it
// counted: Received() describes the current aggregation, not the tenant's
// lifetime. The remembered batch ids go with it — a post-reset re-ship of an
// old batch is a new aggregation's ingest, not a duplicate of anything it
// holds. Only this tenant is touched: a neighbor's dedup window and received
// count survive unchanged (the /api/reset contract README documents).
func (t *ServerTenant) Reset() {
	if t.mem != nil {
		t.mem.Reset()
	}
	t.received.Store(0)
	t.batchMu.Lock()
	t.seenBatch = nil
	t.batchOrder = nil
	t.batchMu.Unlock()
}

// HTTPCollector publishes spans to a remote tracing server over HTTP. It
// buffers spans and ships them in batches to keep publishing overhead away
// from the measured path, as XSP does (spans are published asynchronously
// to avoid added overhead).
//
// Failed POSTs retry with capped exponential backoff and jitter (see
// RetryPolicy): after a failure, Flush refuses to re-POST — returning an
// ErrBackoff error without touching the network — until the backoff
// (or the server's Retry-After hint, whichever is longer) has elapsed, so
// a fleet of collectors facing an overloaded server paces and spreads its
// retries instead of hammering in lockstep.
type HTTPCollector struct {
	baseURL string
	client  *http.Client

	mu       sync.Mutex
	tenant   string // ingest domain batches are tagged with; "" means DefaultTenant
	buf      []*Span
	pending  []httpBatch // batches whose POST failed, oldest first, awaiting retry
	encoding Encoding    // wire encoding; latches to JSON on a 415

	policy   RetryPolicy
	now      func() time.Time // injectable clock, for tests
	rng      *mrand.Rand      // jitter source; guarded by mu
	retryAt  time.Time        // earliest next POST attempt; zero when not backing off
	attempts int              // consecutive failed attempts for the head batch
	backoff  time.Duration    // current backoff step, pre-jitter

	droppedBatches int
	droppedSpans   int
}

// Encoding selects HTTPCollector's wire encoding for span batches.
type Encoding int

const (
	// EncodingBinary is the default: the framed binary batch format
	// (ContentTypeBinary), several times cheaper to decode than JSON. A
	// server that does not understand it answers 415 and the collector
	// falls back to JSON automatically, re-shipping the same batch id, so
	// delivery stays exactly-once across the switch.
	EncodingBinary Encoding = iota

	// EncodingJSON forces the JSON wire format (the historical default).
	EncodingJSON
)

// SetEncoding selects the wire encoding for subsequent POSTs. Mostly a
// benchmarking and compatibility knob — the 415 fallback handles old
// servers without it.
func (c *HTTPCollector) SetEncoding(e Encoding) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.encoding = e
}

// Encoding returns the wire encoding currently in use; it reads
// EncodingJSON after the 415 fallback has latched.
func (c *HTTPCollector) Encoding() Encoding {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.encoding
}

// SetTenant routes subsequent batches to the named tenant: every POST
// carries the key both in the X-Tenant header and inside the wire batch
// (the binary frame's tenant field, the JSON envelope), so the batch
// stays routable even through an intermediary that strips headers. The
// empty key (the default) restores tenantless publishing — byte-for-byte
// the pre-tenant wire — which servers route to DefaultTenant. The key is
// applied when a batch is POSTed, not when it is cut, so set it before
// publishing the spans it should cover (pending retries re-ship under the
// current key).
func (c *HTTPCollector) SetTenant(key string) error {
	if err := ValidateTenant(key); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenant = key
	return nil
}

// RetryPolicy shapes HTTPCollector's retry pacing after a failed POST.
type RetryPolicy struct {
	// BaseDelay is the first backoff step; each consecutive failure
	// doubles it (jittered into [delay/2, delay], so synchronized
	// collectors spread out) up to MaxDelay. Zero disables backoff: Flush
	// may retry immediately, though an explicit Retry-After from the
	// server is still honored.
	BaseDelay time.Duration

	// MaxDelay caps the doubling. Zero leaves it uncapped.
	MaxDelay time.Duration

	// MaxAttempts is the consecutive-failure cap for one batch: when the
	// head batch has failed this many times in a row it is dropped —
	// shed at the client, counted in Dropped — and Flush moves on, so a
	// poisoned or permanently rejected batch cannot dam every span
	// behind it forever. Zero retries forever.
	MaxAttempts int
}

// DefaultRetryPolicy is the pacing NewHTTPCollector installs: backoff
// from 100ms to 10s, never dropping a batch.
var DefaultRetryPolicy = RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 10 * time.Second}

// ErrBackoff is wrapped by the error Flush returns when it refuses to
// POST because the retry backoff window has not elapsed: nothing new went
// wrong, the collector is pacing itself. Callers loop-flushing against an
// overloaded server can errors.Is for it to distinguish pacing from fresh
// failures.
var ErrBackoff = fmt.Errorf("trace: collector in retry backoff")

// httpBatch is a formed span batch with the id that makes its retries
// idempotent: the id is assigned once, when the batch is cut from the
// buffer, and survives every retry, so the server can recognize a re-ship
// of a batch it already committed (a 202 lost in transit) and acknowledge
// without publishing twice.
type httpBatch struct {
	id    uint64
	spans []*Span
}

// newBatchID returns a random nonzero batch id. Random — not the
// per-process span counter: collectors in different processes share one
// server's dedup table, and counters restarting at 1 in every process
// would collide, silently dropping the second process's batches as
// duplicates.
func newBatchID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// No entropy: fall back to the process-local counter rather
			// than fail the flush; uniqueness degrades to per-process.
			return NewSpanID()
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// NewHTTPCollector returns a collector that ships spans to the tracing
// server rooted at baseURL (e.g. "http://127.0.0.1:7777"), retrying
// failed flushes under DefaultRetryPolicy.
func NewHTTPCollector(baseURL string) *HTTPCollector {
	return &HTTPCollector{
		baseURL: baseURL,
		client:  http.DefaultClient,
		policy:  DefaultRetryPolicy,
		now:     time.Now,
		rng:     mrand.New(mrand.NewSource(int64(NewSpanID())*2654435761 + time.Now().UnixNano())),
	}
}

// SetHTTPClient replaces the HTTP client flushes are posted with (nil
// restores http.DefaultClient). Many collectors hammering one server —
// the multi-tenant fleet shape — want a shared Transport with
// MaxIdleConnsPerHost sized to the collector count: the default
// transport keeps only two idle connections per host, so every
// collector past the second pays a fresh TCP handshake per flush.
func (c *HTTPCollector) SetHTTPClient(client *http.Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if client == nil {
		client = http.DefaultClient
	}
	c.client = client
}

// SetRetryPolicy replaces the collector's retry pacing. A zero policy
// restores the pre-backoff behavior: retry on every Flush, immediately,
// forever (the server's explicit Retry-After hints are still honored).
func (c *HTTPCollector) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policy = p
	c.attempts, c.backoff, c.retryAt = 0, 0, time.Time{}
}

// Backlog returns the spans buffered or awaiting retry — zero means
// everything published has been acknowledged by the server.
func (c *HTTPCollector) Backlog() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.buf)
	for _, b := range c.pending {
		n += len(b.spans)
	}
	return n
}

// Dropped reports the batches (and their spans) shed client-side by the
// RetryPolicy.MaxAttempts cap, ever.
func (c *HTTPCollector) Dropped() (batches, spans int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.droppedBatches, c.droppedSpans
}

// Publish buffers spans for the next Flush.
func (c *HTTPCollector) Publish(spans ...*Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf, spans...)
}

// Flush ships every buffered span to the server, retrying batches from
// earlier failed flushes first (oldest first, ahead of spans published in
// the meantime, preserving each tracer's nearly-sorted publish order). It
// returns the number of spans shipped. On any failure — transport error,
// server rejection, or an encoding error — the unshipped batches are kept
// for the next Flush, so a transient server error never loses spans
// (except under the explicit RetryPolicy.MaxAttempts cap, which sheds the
// repeatedly failing head batch and counts it in Dropped). Delivery is
// exactly-once against this package's Server: each batch carries an id
// assigned when it was cut and kept across retries, and the server
// acknowledges a batch id it has already committed without re-publishing
// — so a 202 lost in transit no longer duplicates the batch on retry.
//
// After a failure, Flush paces itself: until the RetryPolicy backoff (or
// the server's Retry-After hint, whichever is longer) has elapsed it cuts
// the buffer into a pending batch but touches no network, returning an
// error wrapping ErrBackoff. Flush never sleeps — pacing is enforced by
// refusal, so a publisher thread calling Flush is delayed by at most one
// POST.
func (c *HTTPCollector) Flush() (int, error) {
	c.mu.Lock()
	if len(c.buf) > 0 {
		c.pending = append(c.pending, httpBatch{id: newBatchID(), spans: c.buf})
		c.buf = nil
	}
	if !c.retryAt.IsZero() {
		if wait := c.retryAt.Sub(c.now()); wait > 0 {
			c.mu.Unlock()
			return 0, fmt.Errorf("%w (%v remaining)", ErrBackoff, wait)
		}
	}
	batches := c.pending
	c.pending = nil
	c.mu.Unlock()

	shipped := 0
	for i, b := range batches {
		retryAfter, err := c.post(b)
		if err != nil {
			c.mu.Lock()
			c.attempts++
			dropped := c.policy.MaxAttempts > 0 && c.attempts >= c.policy.MaxAttempts
			keep := i
			if dropped {
				// The head batch exhausted its attempts: shed it here, so a
				// permanently rejected batch cannot dam everything behind
				// it. Its spans remain counted in Dropped.
				c.droppedBatches++
				c.droppedSpans += len(b.spans)
				c.attempts, c.backoff, c.retryAt = 0, 0, time.Time{}
				keep = i + 1
			} else {
				c.scheduleRetry(retryAfter)
			}
			// The unshipped batches go back, ahead of batches cut while
			// this Flush ran.
			rest := make([]httpBatch, 0, len(batches)-keep+len(c.pending))
			rest = append(rest, batches[keep:]...)
			rest = append(rest, c.pending...)
			c.pending = rest
			c.mu.Unlock()
			if dropped {
				return shipped, fmt.Errorf("trace: batch dropped after %d attempts: %w", c.policy.MaxAttempts, err)
			}
			return shipped, err
		}
		shipped += len(b.spans)
		c.mu.Lock()
		c.attempts, c.backoff, c.retryAt = 0, 0, time.Time{}
		c.mu.Unlock()
	}
	return shipped, nil
}

// scheduleRetry sets the earliest next POST attempt after a failure:
// capped exponential backoff, jittered into [delay/2, delay], never
// earlier than the server's Retry-After hint. Callers hold c.mu.
func (c *HTTPCollector) scheduleRetry(retryAfter time.Duration) {
	var d time.Duration
	if p := c.policy; p.BaseDelay > 0 {
		if c.backoff == 0 {
			c.backoff = p.BaseDelay
		} else {
			c.backoff *= 2
		}
		if p.MaxDelay > 0 && c.backoff > p.MaxDelay {
			c.backoff = p.MaxDelay
		}
		half := c.backoff / 2
		d = half + time.Duration(c.rng.Int63n(int64(half)+1))
	}
	if retryAfter > d {
		d = retryAfter
	}
	if d > 0 {
		c.retryAt = c.now().Add(d)
	}
}

// post ships one batch, with its idempotency id in the batch-id header.
// Batches go out in the collector's current encoding — binary by default;
// a 415 latches JSON and immediately re-ships the same batch (same id, so
// the fallback stays exactly-once even if the server partially processed
// nothing, which a 415 guarantees). On a push-back response it also
// returns the server's Retry-After hint, so the retry schedule can honor
// it.
func (c *HTTPCollector) post(b httpBatch) (time.Duration, error) {
	c.mu.Lock()
	enc := c.encoding
	c.mu.Unlock()
	retryAfter, status, err := c.postAs(b, enc)
	if status == http.StatusUnsupportedMediaType && enc == EncodingBinary {
		c.mu.Lock()
		c.encoding = EncodingJSON
		c.mu.Unlock()
		retryAfter, _, err = c.postAs(b, EncodingJSON)
	}
	return retryAfter, err
}

// postAs ships one batch in the given encoding, returning the server's
// Retry-After hint and HTTP status (zero when the request never got a
// response).
func (c *HTTPCollector) postAs(b httpBatch, enc Encoding) (time.Duration, int, error) {
	c.mu.Lock()
	tenant := c.tenant
	client := c.client
	c.mu.Unlock()
	var body bytes.Buffer
	contentType := ContentTypeBinary
	if enc == EncodingJSON {
		contentType = ContentTypeJSON
		if err := (&Trace{Spans: b.spans, Tenant: tenant}).EncodeJSON(&body); err != nil {
			return 0, 0, err
		}
	} else {
		body.Write(AppendBinaryFrameTenant(nil, tenant, b.spans))
	}
	req, err := http.NewRequest(http.MethodPost, c.baseURL+"/api/spans", &body)
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(batchIDHeader, strconv.FormatUint(b.id, 16))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("trace: publishing spans: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return parseRetryAfter(resp.Header.Get("Retry-After")), resp.StatusCode, fmt.Errorf("trace: server rejected spans: %s", resp.Status)
	}
	return 0, resp.StatusCode, nil
}

// parseRetryAfter decodes a numeric Retry-After value — integer seconds
// per the HTTP spec, or this package's non-standard sub-second decimals.
// The HTTP-date form (and anything else unparseable) yields zero: the
// client falls back to its own backoff.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.ParseFloat(h, 64)
	if err != nil || secs < 0 || secs > 3600 {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}

// FetchTraceTenant retrieves one tenant's aggregated trace from a tracing
// server; the empty tenant reads the default tenant. It asks for the binary
// encoding (Accept) and decodes by the response's Content-Type, so it
// speaks binary to this package's Server and JSON to anything older.
func FetchTraceTenant(client *http.Client, baseURL, tenant string) (*Trace, error) {
	if err := ValidateTenant(tenant); err != nil {
		return nil, err
	}
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequest(http.MethodGet, baseURL+"/api/trace", nil)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	req.Header.Set("Accept", ContentTypeBinary+", "+ContentTypeJSON)
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("trace: fetching trace: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace: server error: %s", resp.Status)
	}
	if mt, _, err := mime.ParseMediaType(resp.Header.Get("Content-Type")); err == nil && mt == ContentTypeBinary {
		return DecodeBinary(resp.Body)
	}
	return DecodeJSON(resp.Body)
}
