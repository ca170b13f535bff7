package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"xsp/internal/analysis"
	"xsp/internal/core"
	"xsp/internal/gpu"
	"xsp/internal/segio"
	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// Config is the server's whole configuration: one field per xsp-server
// flag (the listen address stays with whoever listens) with the flag's
// meaning; its help text in cmd/xsp-server is the field's reference. The
// zero Config runs — RAM-only, no budgets, no reorder window, one-second
// push-back hints, live analyses against gpu.TeslaV100 — but it is not the
// flags' defaults: those also set ReorderWindow.
type Config struct {
	DataDir          string        // -data-dir
	ReorderWindow    time.Duration // -reorder-window
	Retain           time.Duration // -retain
	CorrRetain       time.Duration // -corr-retain
	MaxInflightSpans int           // -max-inflight-spans
	MaxInflightBytes int64         // -max-inflight-bytes
	RetryAfter       time.Duration // -retry-after
	GPU              string        // -gpu: a gpu.Systems name; empty is gpu.TeslaV100
}

// Server is the tracing server as a value: an http.Handler from New until
// Close. See the package comment for what it serves.
type Server struct {
	cfg Config
	gpu gpu.Spec // what every tenant's live analyses classify kernels against

	tenants *trace.Table[*tenant] // every tenant the process holds
	ingest  *trace.Server         // /api/spans and /api/trace, routed through tenants
	mux     *http.ServeMux
	idle    *analysis.Online // never fed: the analyses of a tenant that does not exist

	life      sync.RWMutex  // shared by every request in flight, exclusive in Close
	done      chan struct{} // closed when Close begins: watchers leave, new requests are refused
	closeOnce sync.Once
}

// New builds a server from cfg and opens the default tenant and every
// tenant DataDir holds, recovering each. The only error is a GPU that names
// nothing; a store that will not open degrades its tenant to RAM-only
// instead (see /api/durability).
func New(cfg Config) (*Server, error) {
	if cfg.GPU == "" {
		cfg.GPU = gpu.TeslaV100.Name
	}
	spec, err := gpu.SystemByName(cfg.GPU)
	if err != nil {
		return nil, fmt.Errorf("unknown -gpu %q", cfg.GPU)
	}
	s := &Server{cfg: cfg, gpu: spec, mux: http.NewServeMux(), done: make(chan struct{})}
	s.tenants = trace.NewTable(s.open)
	s.ingest = trace.NewServerOn(s.tenants, func(t *tenant) *trace.ServerTenant { return t.ingest })
	s.idle = analysis.NewOnline(analysis.OnlineOptions{Spec: spec})
	fmt.Fprintf(os.Stderr, "xsp-server: live analyses on (%s)\n", spec.Name)
	// Always installed: the policy carries the Retry-After of every push-back,
	// a 503 included. Its zero budgets admit everything.
	s.ingest.SetAdmission(trace.AdmissionPolicy{MaxInflightBytes: cfg.MaxInflightBytes, MaxInflightSpans: cfg.MaxInflightSpans, RetryAfter: cfg.RetryAfter})
	s.mux.Handle("/", s.ingest)
	s.route(http.MethodGet, "/api/tenants", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, append([]string{}, s.tenants.Keys()...)) // in creation order; never null
	})
	s.route(http.MethodGet, "/api/overload", s.handleOverload)
	s.tenantRoute(http.MethodPost, "/api/reset", s.handleReset)
	s.tenantRoute(http.MethodPost, "/api/checkpoint", s.handleCheckpoint)
	s.tenantRoute(http.MethodGet, "/api/correlated", s.handleCorrelated)
	s.tenantRoute(http.MethodGet, "/api/analysis", s.handleAnalysis)
	s.tenantRoute(http.MethodGet, "/api/analysis/", s.handleAnalysis)
	if cfg.DataDir != "" {
		s.route(http.MethodGet, "/api/durability", s.handleDurability)
	}

	// The default tenant exists from boot — the common single-tenant
	// deployment recovers (or starts) its stream before the first request —
	// and so does every tenant with a directory, so no tenant's recovery
	// waits for its first POST.
	s.tenants.Open(trace.DefaultTenant)
	if cfg.DataDir != "" {
		entries, _ := os.ReadDir(s.dir("")) // no directory yet: no tenants yet
		for _, e := range entries {
			if e.IsDir() && trace.ValidateTenant(e.Name()) == nil {
				s.tenants.Open(e.Name())
			}
		}
	}
	fmt.Fprintf(os.Stderr, "xsp-server: streaming correlation on (reorder window %s, retain %s)\n", cfg.ReorderWindow, cfg.Retain)
	return s, nil
}

// dir is the on-disk layout: the default tenant's store at the DataDir
// root, where a pre-tenant build left it, and any other under tenants/<key>
// — so the empty key names the directory boot scans for them.
func (s *Server) dir(key string) string {
	if key == trace.DefaultTenant {
		return s.cfg.DataDir
	}
	return filepath.Join(s.cfg.DataDir, "tenants", key)
}

// replyDeadline bounds how long writing one reply may take, the analysis
// watch's stream excepted: a client that stops reading a large
// /api/correlated would otherwise hold the request — and the segment files
// its view pinned, deleted or not — for as long as its connection stays up.
// A variable so that tests can shorten it.
var replyDeadline = time.Minute

// ServeHTTP implements http.Handler. Every reply gets replyDeadline to be
// written. After Close it answers 503.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// A writer without deadlines (an httptest recorder) has nothing to bound.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(replyDeadline))
	s.life.RLock()
	defer s.life.RUnlock()
	select {
	case <-s.done:
		http.Error(w, "xsp-server: closed", http.StatusServiceUnavailable)
	default:
		s.mux.ServeHTTP(w, r)
	}
}

// Close ends the lifecycle: it refuses new requests, ends the analysis
// watchers, waits for the requests in flight, and then closes every tenant
// — its tap, draining the queue into the correlator, and then its store.
// Every acknowledged batch is already fsynced, so there is nothing to fold
// or rotate first: the directory is left as a crash would leave it, minus
// the torn tail. Close is idempotent, and returns once the first call has.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.life.Lock()
		defer s.life.Unlock()
		for _, key := range s.tenants.Keys() { // nothing is in flight: the table is still
			t, _ := s.tenants.Lookup(key)
			t.close()
		}
	})
}

// route registers h as pattern's handler for one method; any other is a
// 405. (Not a "GET /api/…" pattern: beside the "/" catch-all the mux would
// hand the wrong method to trace.Server, a 404.)
func (s *Server) route(method, pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			http.Error(w, method+" required", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	})
}

// tenantRoute is route for an endpoint that addresses one tenant (X-Tenant
// or ?tenant=, else the default): an invalid key is a 400, and an unknown
// one reaches h as nil — the tenant does not exist (yet), the endpoint
// serves its empty answer, and nothing is minted for a typo.
func (s *Server) tenantRoute(method, pattern string, h func(http.ResponseWriter, *http.Request, *tenant)) {
	s.route(method, pattern, func(w http.ResponseWriter, r *http.Request) {
		key, err := trace.RequestTenant(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		t, _ := s.tenants.Lookup(key)
		h(w, r, t)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// tenant is everything the server holds for one tenant key, and the
// trace.Consumer its ingest half (dedup window, admission counters) hands
// every accepted batch to: the correlator — whose history is the tenant's
// span store — with its durable store and what recovery found, the async
// tap in front of the correlator (RAM mode; nil durable) and the
// live-analysis engine. Built once by open, immutable afterwards.
type tenant struct {
	ingest *trace.ServerTenant
	sc     *core.StreamCorrelator
	store  *segio.Store
	rec    *segio.Recovery
	err    error // the store's open or recovery failure: the tenant runs RAM-only past it
	tap    *trace.AsyncTap
	engine *analysis.Online
}

// open builds the tenant named key, once, before the table inserts it: it
// opens (durable: recovers) the tenant's stream and hands it, as the
// consumer, to a fresh ingest half — with the recovered dedup ids seeded
// first, or, in RAM mode, behind a tap.
func (s *Server) open(key string) *tenant {
	// The engine attaches as the stream's observer before the correlator is
	// built — and, durable, before recovery replays the tenant's history —
	// so a restarted server's live analyses cover everything its correlated
	// view does.
	t := &tenant{engine: analysis.NewOnline(analysis.OnlineOptions{Spec: s.gpu})}
	opts := core.StreamOptions{
		ReorderWindow: vclock.Duration(s.cfg.ReorderWindow),
		Retain:        vclock.Duration(s.cfg.Retain),
		CorrRetain:    vclock.Duration(s.cfg.CorrRetain),
		Observer:      t.engine,
	}
	if s.cfg.DataDir == "" {
		t.sc = core.NewStreamCorrelator(opts)
		t.tap = trace.NewAsyncTap(t, trace.TapOptions{})
		t.ingest = s.ingest.NewTenant(key, t)
		return t
	}
	// Durable, batches reach the correlator synchronously at the ack
	// barrier (WAL fsync before the 202): there is no tap, even when the
	// store did not open.
	t.sc, t.store, t.rec, t.err = core.OpenStream(key, opts, func() (*segio.Store, *segio.Recovery, error) {
		fs, err := segio.DirFS(s.dir(key)) // creates the directory
		if err != nil {
			return nil, nil, err
		}
		return segio.Open(fs, segio.Options{})
	})
	t.ingest = s.ingest.NewTenant(key, t)
	if t.err != nil {
		fmt.Fprintf(os.Stderr, "xsp-server: tenant %s degraded to RAM-only: %v\n", key, t.err)
	}
	if t.rec != nil {
		// The recovered dedup window makes client retries of pre-crash
		// acked batches duplicate-ack instead of double-publish.
		t.ingest.SeedBatches(t.rec.DedupIDs)
		fmt.Fprintf(os.Stderr, "xsp-server: tenant %s recovered %d segment(s), %d live batch record(s), %d dedup id(s)\n",
			key, len(t.rec.Segments), len(t.rec.Batches), len(t.rec.DedupIDs))
	}
	return t
}

// Ingest implements trace.Consumer: a batch goes through the tap in RAM
// mode, and durable through the WAL into the correlator before it returns.
// Either way the correlator owns its spans, which the ingest half decoded for
// this call alone: a fold recycles them (core.StreamCorrelator.FeedOwned).
func (t *tenant) Ingest(batchID uint64, spans []*trace.Span) error {
	if t.tap == nil {
		return t.sc.FeedOwned(batchID, spans...)
	}
	t.tap.Publish(spans...)
	return nil
}

// Publish is the tap's destination: a batch Ingest queued, fed owned.
func (t *tenant) Publish(spans ...*trace.Span) { _ = t.sc.FeedOwned(0, spans...) }

// Backlog implements trace.Consumer: the tap's depth, when there is a tap.
func (t *tenant) Backlog() (int, bool) {
	if t.tap == nil {
		return 0, false
	}
	return t.tap.Depth(), true
}

// View implements trace.Consumer: the correlator's history with its links
// masked out, settled first, so a batch whose 202 has returned is in it.
func (t *tenant) View() trace.View {
	t.settle()
	return t.sc.View(true)
}

// settle waits until every batch acknowledged so far has reached the
// correlator — the step in front of anything that reads or clears it.
func (t *tenant) settle() {
	if t.tap != nil {
		t.tap.Flush()
	}
}

// flush settles and then finalizes the correlator's pending work (buffered
// reordered arrivals, device-only executions, stragglers) exactly as a
// batch correlation would: what ?flush=1 asks for.
func (t *tenant) flush() {
	t.settle()
	t.sc.Flush()
}

// reset clears both sides of the tap, or the correlated view would keep
// serving (and mis-parenting against) spans from a run the collector no
// longer holds — and the durable state with them. Queued batches drain
// first, so none lands in a reset correlator; the engine goes last, so none
// lands in a reset engine.
func (t *tenant) reset() {
	t.ingest.Reset()
	t.settle()
	t.sc.Reset()
	t.engine.Reset()
}

// close drains the tap into the correlator and stops its worker, then
// releases the segment files the correlator reads and the store's WAL
// handle. Every record behind that handle was synced before its batch was
// acknowledged, so an error here loses nothing.
func (t *tenant) close() {
	if t.tap != nil {
		t.tap.Close()
	}
	t.sc.Close()
	if t.store != nil {
		if err := t.store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "xsp-server: tenant %s: closing the store: %v\n", t.ingest.Key(), err)
		}
	}
}

// GET /api/overload: the admission and tap counters and the correlator's
// load, per tenant.
func (s *Server) handleOverload(w http.ResponseWriter, _ *http.Request) {
	type tenantView struct {
		Admission trace.OverloadStats  `json:"admission"`
		Tap       *trace.AsyncTapStats `json:"tap,omitempty"`
		Load      *core.Load           `json:"load,omitempty"`
	}
	type overloadView struct {
		Admission trace.OverloadStats   `json:"admission"`
		Tenants   map[string]tenantView `json:"tenants,omitempty"`
	}
	v := overloadView{Admission: s.ingest.OverloadStats(), Tenants: map[string]tenantView{}}
	for _, key := range s.tenants.Keys() {
		t, _ := s.tenants.Lookup(key)
		tv := tenantView{Admission: t.ingest.OverloadStats()}
		if t.tap != nil {
			st := t.tap.Stats()
			tv.Tap = &st
		}
		l := t.sc.Load()
		tv.Load = &l
		v.Tenants[key] = tv
	}
	writeJSON(w, v)
}

// GET /api/durability: every tenant's directory, store stats, latched
// error and what its last recovery found.
func (s *Server) handleDurability(w http.ResponseWriter, _ *http.Request) {
	type recoveryView struct {
		Segments           int      `json:"segments"`
		BatchRecords       int      `json:"batch_records"`
		DedupIDs           int      `json:"dedup_ids"`
		Quarantined        []string `json:"quarantined,omitempty"`
		SupersededSegments int      `json:"superseded_segments,omitempty"`
		WALTruncatedBytes  int64    `json:"wal_truncated_bytes,omitempty"`
	}
	type tenantView struct {
		Dir      string        `json:"dir"`
		Store    *segio.Stats  `json:"store,omitempty"`
		Err      string        `json:"err,omitempty"`
		Recovery *recoveryView `json:"recovery,omitempty"`
	}
	type durabilityView struct {
		Dir     string                `json:"dir"`
		Tenants map[string]tenantView `json:"tenants"`
	}
	v := durabilityView{Dir: s.cfg.DataDir, Tenants: map[string]tenantView{}}
	for _, key := range s.tenants.Keys() {
		t, _ := s.tenants.Lookup(key)
		tv := tenantView{Dir: s.dir(key)}
		if t.store != nil {
			stats := t.store.Stats()
			tv.Store = &stats
		}
		if rec := t.rec; rec != nil {
			tv.Recovery = &recoveryView{len(rec.Segments), len(rec.Batches), len(rec.DedupIDs), rec.Quarantined, rec.SupersededSegments, rec.WALTruncatedBytes}
		}
		if t.err != nil {
			tv.Err = t.err.Error()
		} else if err := t.sc.DurabilityErr(); err != nil {
			tv.Err = err.Error()
		}
		v.Tenants[key] = tv
	}
	writeJSON(w, v)
}

// POST /api/reset clears the addressed tenant — collector, dedup window,
// correlator, durable state, analyses — and only that tenant. One that does
// not exist is already empty.
func (s *Server) handleReset(w http.ResponseWriter, _ *http.Request, t *tenant) {
	if t != nil {
		t.reset()
	}
	w.WriteHeader(http.StatusNoContent)
}

// POST /api/checkpoint folds finalized history past the retain window into
// a checkpoint segment on demand.
func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request, t *tenant) {
	folded := 0
	if t != nil {
		folded = t.sc.Checkpoint()
	}
	writeJSON(w, map[string]int{"folded": folded})
}

// GET /api/correlated: the tenant's trace with parents resolved, settled
// first when ?flush= asks, under the correlator's counters as headers. An
// unknown tenant's empty trace names the key, as /api/trace's does.
func (s *Server) handleCorrelated(w http.ResponseWriter, r *http.Request, t *tenant) {
	var view trace.View
	if t != nil {
		if r.URL.Query().Get("flush") != "" {
			t.flush()
		}
		st := t.sc.Stats()
		set := func(name string, v int) { w.Header().Set("X-Stream-"+name, fmt.Sprint(v)) }
		set("Released", st.Released)
		set("Pending", st.Buffered+st.PendingExecs)
		set("Stragglers", st.Stragglers)
		set("Degraded-Windows", st.DegradedWindows)
		set("Windows-Chained", st.WindowsChained)
		set("Repaired", st.Repaired)
		set("Live", st.Live)
		set("Checkpointed", st.Checkpointed)
		set("Segments", st.Segments)
		set("Compactions", st.Compactions)
		set("Reopens", st.Reopens)
		set("Corr-Entries", st.CorrEntries)
		set("Corr-Evicted", st.CorrEvicted)
		view = t.sc.View(false)
	}
	defer view.Close()
	key, _ := trace.RequestTenant(r) // tenantRoute has validated it
	view.Tenant = trace.CanonicalTenant(key)
	trace.WriteView(w, r, view)
}

// analysisViews are the snapshots /api/analysis[/view] serves; the combined
// one returns all four under one lock acquisition.
var analysisViews = map[string]func(*analysis.Online) any{
	"":           func(e *analysis.Online) any { return e.Snapshot() },
	"layers":     func(e *analysis.Online) any { return e.LayersSnapshot() },
	"launchgaps": func(e *analysis.Online) any { return e.LaunchGapsSnapshot() },
	"memcpy":     func(e *analysis.Online) any { return e.MemcpySnapshot() },
	"roofline":   func(e *analysis.Online) any { return e.RooflineSnapshot() },
}

// GET /api/analysis[/view]: the tenant's live analyses as JSON, or — with
// Accept: text/event-stream or ?watch= — as a stream of them.
func (s *Server) handleAnalysis(w http.ResponseWriter, r *http.Request, t *tenant) {
	view, ok := analysisViews[strings.Trim(strings.TrimPrefix(r.URL.Path, "/api/analysis"), "/")]
	if !ok {
		http.Error(w, "unknown analysis view", http.StatusNotFound)
		return
	}
	eng := s.idle
	if t != nil {
		eng = t.engine
		if r.URL.Query().Get("flush") != "" {
			t.flush() // pending correlator work reaches the analyses, like /api/correlated
		}
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") || r.URL.Query().Get("watch") != "" {
		s.watch(w, r, func() any { return view(eng) })
		return
	}
	w.Header().Set("X-Analysis-Spans", fmt.Sprint(eng.SpansObserved()))
	w.Header().Set("X-Analysis-GPU", s.gpu.Name)
	writeJSON(w, view(eng))
}

// minWatchInterval is the shortest SSE period watch honours. Each event
// re-encodes a snapshot under the engine lock ObserveSpans takes under the
// correlator's mutex, so an unclamped ?interval=1ns would slow the tenant's
// ingest for as long as the GET stays open.
const minWatchInterval = time.Millisecond

// watch serves snapshot as server-sent events, one per ?interval= (default
// 1s, at least minWatchInterval): always the current totals, so a consumer
// that connects mid-ingest converges without replaying history. It ends with
// the request's context (the client left, or the listener's base context was
// cancelled) or when Close begins — it never holds a shutdown open.
func (s *Server) watch(w http.ResponseWriter, r *http.Request, snapshot func() any) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	interval := time.Second
	if iv := r.URL.Query().Get("interval"); iv != "" {
		d, err := time.ParseDuration(iv)
		if err != nil || d <= 0 {
			http.Error(w, "bad interval", http.StatusBadRequest)
			return
		}
		interval = max(d, minWatchInterval)
	}
	// The stream lasts as long as the client listens: no reply deadline.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	enc := json.NewEncoder(w)
	for {
		fmt.Fprintf(w, "event: analysis\ndata: ")
		if err := enc.Encode(snapshot()); err != nil {
			return
		}
		fmt.Fprint(w, "\n")
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case <-tick.C:
		}
	}
}
