package bench

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xsp/internal/analysis"
	"xsp/internal/core"
	"xsp/internal/gpu"
	"xsp/internal/segio"
	"xsp/internal/trace"
)

// observerSampling is how many ObserveSpan calls pass between timed ones:
// the call costs a couple of hundred nanoseconds, so timing every one
// would measure the recorder.
const observerSampling = 64

// Replica is cmd/xsp-server's wiring assembled in this process — the same
// trace.Server, core.TenantSet (same StreamOptions, Isolated included),
// analysis.Online observers, segio stores and tap or durable-sink hookup —
// with a recorder at every boundary that is already a public interface:
// the http.Handler, the trace.DurableSink, the tap's trace.Collector on
// both sides of the async queue, the core.StreamObserver and the segio.FS.
// It serves the endpoints the load generator uses. On durable_bigtail its
// store and correlator counts are compared with the real binary's after
// every traced run, so it cannot drift from main.go unnoticed.
type Replica struct {
	w       Workload
	rec     *Recorder
	root    int // the run span: cause of everything no request caused
	dataDir string

	srv     *trace.Server
	tenants *core.TenantSet
	mux     *http.ServeMux
	http    *httptest.Server

	mu  sync.Mutex
	rts map[string]*replicaTenant

	posts202 atomic.Int64
	posts429 atomic.Int64
	posts503 atomic.Int64
	dupAcks  atomic.Int64
}

// replicaTenant is what the replica keeps per tenant: main.go's
// tenantRuntime plus the recorders' state.
type replicaTenant struct {
	key    string
	rec    *Recorder
	stream *core.TenantStream
	tap    *trace.AsyncTap
	eng    *analysis.Online
	fs     *TimingFS

	handle atomic.Int64 // span handler in flight (one publisher per tenant)
	cur    atomic.Int64 // correlator call in flight; file operations and observer samples hang under it

	mu       sync.Mutex
	accepted []acceptedBatch // POSTs the async tap has not fed yet, oldest first
	busy     map[string]time.Duration
	calls    map[string]int64

	observed     uint64
	observeNanos int64 // sum over the sampled calls
	observeCalls int64
}

type acceptedBatch struct {
	span  int
	batch uint64
}

// NewReplica wires the pipeline for w over dataDir (ignored unless w is
// durable; existing contents are recovered, as at server boot) and starts
// listening on a loopback port.
func NewReplica(w Workload, dataDir string, rec *Recorder, root int) *Replica {
	rp := &Replica{w: w, rec: rec, root: root, dataDir: dataDir, rts: make(map[string]*replicaTenant)}
	rp.srv = trace.NewServer()
	rp.mux = http.NewServeMux()

	setOpts := core.TenantSetOptions{
		Stream: core.StreamOptions{
			ReorderWindow: w.ReorderWindow,
			Isolated:      true,
			Retain:        w.Retain,
			CorrRetain:    w.CorrRetain,
		},
		InitStream: func(tenant string, opts core.StreamOptions) core.StreamOptions {
			rt := rp.rt(tenant)
			rt.eng = analysis.NewOnline(analysis.OnlineOptions{Spec: gpu.TeslaV100})
			opts.Observer = rt
			return opts
		},
	}
	if w.Durable {
		setOpts.OpenStore = func(tenant string) (*segio.Store, *segio.Recovery, error) {
			dir := dataDir
			if tenant != trace.DefaultTenant {
				dir = filepath.Join(dataDir, "tenants", tenant)
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, nil, err
			}
			fs, err := segio.DirFS(dir)
			if err != nil {
				return nil, nil, err
			}
			rt := rp.rt(tenant)
			rt.fs = NewTimingFS(fs, rec, func() int { return int(rt.cur.Load()) })
			var (
				store *segio.Store
				rcv   *segio.Recovery
			)
			rt.call("segio", "open", 0, 0, func() { store, rcv, err = segio.Open(rt.fs, segio.Options{}) })
			return store, rcv, err
		}
	}
	rp.tenants = core.NewTenantSet(setOpts)

	rp.srv.SetTenantInit(func(tn *trace.ServerTenant) {
		rt := rp.rt(tn.Key())
		// Stream() runs InitStream, OpenStore (the nested "open" call) and
		// RecoverStream, so "recover" minus "open" is the replay.
		var st *core.TenantStream
		rt.call("core.stream", "recover", rp.root, 0, func() {
			var err error
			if st, err = rp.tenants.Stream(tn.Key()); err != nil {
				panic(err) // the server validated the key
			}
		})
		rt.stream = st
		tn.SetLoad(st)
		if w.Durable {
			if rcv := st.Recovery(); rcv != nil {
				if recovered := st.Correlator().SnapshotTrace(); len(recovered.Spans) > 0 {
					tn.Collector().Publish(recovered.Spans...)
				}
				tn.SeedBatches(rcv.DedupIDs)
			}
			tn.SetDurable(durableRecorder{rt})
		} else {
			// main.go's SetTapAsync, with a recorder on each side of the
			// queue: one timing AsyncTap.Publish on the handler's goroutine,
			// one timing the feed on the tap worker's.
			rt.tap = tn.SetTapAsync(feedRecorder{rt}, trace.TapOptions{Queue: trace.DefaultTapQueue, Policy: trace.ShedBlock})
			tn.SetTap(enqueueRecorder{rt})
		}
	})
	rp.srv.Tenant(trace.DefaultTenant)
	if w.Durable {
		if entries, err := os.ReadDir(filepath.Join(dataDir, "tenants")); err == nil {
			for _, e := range entries {
				if e.IsDir() && trace.ValidateTenant(e.Name()) == nil {
					rp.srv.Tenant(e.Name())
				}
			}
		}
	}

	rp.mux.HandleFunc("/api/spans", rp.handleSpans)
	rp.mux.Handle("/", rp.srv)
	rp.mux.HandleFunc("/api/tenants", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rp.srv.Tenants())
	})
	rp.mux.HandleFunc("/api/analysis", rp.handleAnalysis)
	rp.mux.HandleFunc("/api/analysis/", rp.handleAnalysis)
	rp.mux.HandleFunc("/api/correlated", rp.handleCorrelated)
	rp.http = httptest.NewServer(rp.mux)
	return rp
}

// BaseURL is where the replica listens.
func (rp *Replica) BaseURL() string { return rp.http.URL }

// Close stops the listener, the taps and the stores. On-disk state is
// left as any crash would leave it: complete up to the last acknowledgement.
func (rp *Replica) Close() {
	rp.http.Close()
	for _, rt := range rp.runtimes() {
		if rt.tap != nil {
			rt.tap.Close()
		}
		if rt.stream != nil && rt.stream.Store() != nil {
			_ = rt.stream.Store().Close()
		}
	}
}

func (rp *Replica) rt(key string) *replicaTenant {
	key = trace.CanonicalTenant(key)
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rt := rp.rts[key]
	if rt == nil {
		rt = &replicaTenant{key: key, rec: rp.rec, busy: make(map[string]time.Duration), calls: make(map[string]int64)}
		rp.rts[key] = rt
	}
	return rt
}

func (rp *Replica) runtimes() []*replicaTenant {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	out := make([]*replicaTenant, 0, len(rp.rts))
	for _, key := range sortedKeys(rp.rts) {
		out = append(out, rp.rts[key])
	}
	return out
}

func (rt *replicaTenant) add(name string, d time.Duration) {
	rt.mu.Lock()
	rt.busy[name] += d
	rt.calls[name]++
	rt.mu.Unlock()
}

// call records one call into a layer as a span and, for its duration,
// names it as the cause of the tenant's file operations and observer
// samples. Those run under the correlator's mutex, and every workload has
// one publisher per tenant and flushes only after it stops, so one slot
// per tenant is enough; a second concurrent caller would only blur
// attribution, never the totals.
func (rt *replicaTenant) call(layer, name string, parent int, batch uint64, fn func()) {
	outer := rt.cur.Load()
	if parent == 0 {
		parent = int(outer) // a call nested in another (the store open inside recovery)
	}
	id := rt.rec.Begin(layer, name, DepthStage, parent, batch)
	rt.cur.Store(int64(id))
	start := time.Now()
	fn()
	rt.add(name, time.Since(start))
	rt.cur.Store(outer)
	rt.rec.End(id)
}

// timed records a call that cannot cause file operations or observer
// calls (a read), so it leaves the tenant's cause slot alone and may run
// beside a feed.
func (rt *replicaTenant) timed(layer, name string, parent int, fn func()) {
	id := rt.rec.Begin(layer, name, DepthStage, parent, 0)
	start := time.Now()
	fn()
	rt.add(name, time.Since(start))
	rt.rec.End(id)
}

// ObserveSpan implements core.StreamObserver in front of the tenant's
// engine, timing one call in observerSampling.
func (rt *replicaTenant) ObserveSpan(s *trace.Span) {
	rt.observed++
	if rt.observed%observerSampling != 0 {
		rt.eng.ObserveSpan(s)
		return
	}
	start := time.Now()
	rt.eng.ObserveSpan(s)
	end := time.Now()
	if end = end.Add(-rt.rec.ClockCost); end.Before(start) {
		end = start
	}
	rt.observeNanos += int64(end.Sub(start))
	rt.observeCalls++
	rt.rec.Add(RecSpan{Parent: int(rt.cur.Load()), Layer: "analysis.online", Name: "observe", Depth: DepthStage, Weight: observerSampling}, start, end)
}

// durableRecorder is the trace.DurableSink boundary.
type durableRecorder struct{ rt *replicaTenant }

func (d durableRecorder) IngestLogged(batchID uint64, spans []*trace.Span) (err error) {
	d.rt.call("core.stream", "feed", d.rt.rec.Linked(batchID), batchID, func() { err = d.rt.stream.IngestLogged(batchID, spans) })
	return err
}

// enqueueRecorder is the tap boundary on the handler's side of the queue.
type enqueueRecorder struct{ rt *replicaTenant }

func (e enqueueRecorder) Publish(spans ...*trace.Span) {
	id := e.rt.rec.Begin("trace.tap", "enqueue", DepthStage, int(e.rt.handle.Load()), 0)
	start := time.Now()
	e.rt.tap.Publish(spans...)
	e.rt.add("enqueue", time.Since(start))
	e.rt.rec.End(id)
}

// feedRecorder is the tap boundary on the worker's side. The tap forwards
// batches in the order it accepted them, so the k-th feed belongs to the
// tenant's k-th accepted POST.
type feedRecorder struct{ rt *replicaTenant }

func (f feedRecorder) Publish(spans ...*trace.Span) {
	var from acceptedBatch
	f.rt.mu.Lock()
	if len(f.rt.accepted) > 0 {
		from, f.rt.accepted = f.rt.accepted[0], f.rt.accepted[1:]
	}
	f.rt.mu.Unlock()
	f.rt.call("core.stream", "feed", from.span, from.batch, func() { f.rt.stream.Publish(spans...) })
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// handleSpans is the http.Handler boundary around trace.Server's ingest.
func (rp *Replica) handleSpans(w http.ResponseWriter, r *http.Request) {
	batch, _ := strconv.ParseUint(r.Header.Get("X-Batch-Id"), 16, 64)
	rt := rp.rt(r.Header.Get(trace.TenantHeader))
	id := rp.rec.Begin("trace.server", "handle", DepthStage, rp.rec.Linked(batch), batch)
	rp.rec.Link(batch, id)
	rt.handle.Store(int64(id))
	if !rp.w.Durable {
		// Queued before the server runs: the tap worker may feed the batch
		// before ServeHTTP returns.
		rt.mu.Lock()
		rt.accepted = append(rt.accepted, acceptedBatch{span: id, batch: batch})
		rt.mu.Unlock()
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	rp.srv.ServeHTTP(sw, r)
	rt.handle.Store(0)
	rp.rec.End(id)
	switch sw.status {
	case http.StatusAccepted:
		rp.posts202.Add(1)
	case http.StatusTooManyRequests:
		rp.posts429.Add(1)
	case http.StatusServiceUnavailable:
		rp.posts503.Add(1)
	}
	if sw.Header().Get("X-Duplicate-Batch") != "" {
		rp.dupAcks.Add(1)
	}
	if !rp.w.Durable && (sw.status != http.StatusAccepted || sw.Header().Get("X-Duplicate-Batch") != "") {
		// Nothing reached the tap for this request: take its entry back.
		rt.mu.Lock()
		for i, a := range rt.accepted {
			if a.span == id {
				rt.accepted = append(rt.accepted[:i], rt.accepted[i+1:]...)
				break
			}
		}
		rt.mu.Unlock()
	}
}

// requestRt resolves the tenant a read addresses without creating it.
func (rp *Replica) requestRt(w http.ResponseWriter, r *http.Request) (*replicaTenant, bool) {
	key, err := trace.RequestTenant(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.rts[trace.CanonicalTenant(key)], true
}

// flush finalizes pending correlator work like main.go's ?flush=1.
func (rt *replicaTenant) flush(parent int) {
	if rt.tap != nil {
		rt.timed("trace.tap", "drain", parent, rt.tap.Flush)
	}
	rt.call("core.stream", "flush", parent, 0, rt.stream.Correlator().Flush)
}

// causeHeader carries the load generator's span id on its reads, the one
// kind of request that has no batch id to link by. The real server ignores
// it.
const causeHeader = "X-Bench-Span"

func requestCause(r *http.Request) int {
	id, _ := strconv.Atoi(r.Header.Get(causeHeader))
	return id
}

func (rp *Replica) handleAnalysis(w http.ResponseWriter, r *http.Request) {
	rt, ok := rp.requestRt(w, r)
	if !ok {
		return
	}
	eng := analysis.NewOnline(analysis.OnlineOptions{Spec: gpu.TeslaV100})
	if rt != nil && rt.eng != nil {
		eng = rt.eng
		if r.URL.Query().Get("flush") != "" {
			rt.flush(requestCause(r))
		}
	}
	var view any
	switch part := strings.Trim(strings.TrimPrefix(r.URL.Path, "/api/analysis"), "/"); part {
	case "":
		view = eng.Snapshot()
	case "memcpy":
		view = eng.MemcpySnapshot()
	default:
		http.Error(w, "unknown analysis view", http.StatusNotFound)
		return
	}
	w.Header().Set("X-Analysis-Spans", fmt.Sprint(eng.SpansObserved()))
	w.Header().Set("Content-Type", "application/json")
	encode := func() { _ = json.NewEncoder(w).Encode(view) }
	if rt != nil {
		rt.timed("analysis.online", "snapshot_json", requestCause(r), encode)
	} else {
		encode()
	}
}

func (rp *Replica) handleCorrelated(w http.ResponseWriter, r *http.Request) {
	rt, ok := rp.requestRt(w, r)
	if !ok {
		return
	}
	snap := &trace.Trace{}
	if rt != nil {
		if r.URL.Query().Get("flush") != "" {
			rt.flush(requestCause(r))
		}
		rt.timed("core.stream", "snapshot", requestCause(r), func() { snap = rt.stream.Correlator().SnapshotTrace() })
		snap.Tenant = rt.key
	}
	if trace.AcceptsBinary(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", trace.ContentTypeBinary)
		encode := func() { _ = snap.EncodeBinary(w) }
		if rt != nil {
			rt.timed("trace.codec", "encode_trace", requestCause(r), encode)
		} else {
			encode()
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = snap.EncodeJSON(w)
}

// ReplicaCounts is what a replica run contributes to the per-layer
// metrics, summed over tenants.
type ReplicaCounts struct {
	Tenants int
	Stream  core.StreamStats
	Load    core.Load
	Store   segio.Stats
	FS      FSStats
	Tap     trace.AsyncTapStats

	Busy  map[string]time.Duration // by recorded call name: feed, flush, snapshot, snapshot_json, encode_trace, recover, open, enqueue, drain
	Calls map[string]int64

	SpansObserved  int64
	ObserveNSPer   float64 // mean of the sampled ObserveSpan calls
	Posts202       int64
	Posts429       int64
	Posts503       int64
	DupAcks        int64
	DurabilityErrs []string
}

// Counts reads every counter; call it after the load has stopped.
func (rp *Replica) Counts() ReplicaCounts {
	c := ReplicaCounts{
		Tenants:  len(rp.tenants.Keys()),
		Busy:     make(map[string]time.Duration),
		Calls:    make(map[string]int64),
		Posts202: rp.posts202.Load(),
		Posts429: rp.posts429.Load(),
		Posts503: rp.posts503.Load(),
		DupAcks:  rp.dupAcks.Load(),
	}
	var observeNanos, observeCalls int64
	for _, rt := range rp.runtimes() {
		if rt.stream == nil {
			continue
		}
		sc := rt.stream.Correlator()
		addStreamStats(&c.Stream, sc.Stats())
		l := sc.Load()
		c.Load.LiveSpans += l.LiveSpans
		c.Load.Buffered += l.Buffered
		c.Load.PendingExecs += l.PendingExecs
		c.Load.WindowSpans += l.WindowSpans
		if store := rt.stream.Store(); store != nil {
			s := store.Stats()
			c.Store.Segments += s.Segments
			c.Store.SegmentBytes += s.SegmentBytes
			c.Store.WALBytes += s.WALBytes
			c.Store.WALRecords += s.WALRecords
			c.Store.DedupIDs += s.DedupIDs
		}
		if err := rt.stream.Err(); err != nil {
			c.DurabilityErrs = append(c.DurabilityErrs, err.Error())
		} else if err := sc.DurabilityErr(); err != nil {
			c.DurabilityErrs = append(c.DurabilityErrs, err.Error())
		}
		if rt.fs != nil {
			addFSStats(&c.FS, rt.fs.Stats())
		}
		if rt.tap != nil {
			t := rt.tap.Stats()
			c.Tap.Enqueued += t.Enqueued
			c.Tap.Forwarded += t.Forwarded
			c.Tap.Dropped += t.Dropped
			c.Tap.MaxDepth = max(c.Tap.MaxDepth, t.MaxDepth)
		}
		rt.mu.Lock()
		for k, v := range rt.busy {
			c.Busy[k] += v
		}
		for k, v := range rt.calls {
			c.Calls[k] += v
		}
		rt.mu.Unlock()
		c.SpansObserved += rt.eng.SpansObserved()
		observeNanos += rt.observeNanos
		observeCalls += rt.observeCalls
	}
	if observeCalls > 0 {
		c.ObserveNSPer = float64(observeNanos) / float64(observeCalls)
	}
	return c
}

func addStreamStats(dst *core.StreamStats, s core.StreamStats) {
	dst.Fed += s.Fed
	dst.Released += s.Released
	dst.Buffered += s.Buffered
	dst.PendingExecs += s.PendingExecs
	dst.Stragglers += s.Stragglers
	dst.DegradedWindows += s.DegradedWindows
	dst.WindowsChained += s.WindowsChained
	dst.Repaired += s.Repaired
	dst.Live += s.Live
	dst.Checkpointed += s.Checkpointed
	dst.Segments += s.Segments
	dst.Compactions += s.Compactions
	dst.Reopens += s.Reopens
	dst.CorrEntries += s.CorrEntries
	dst.CorrEvicted += s.CorrEvicted
}

func addFSStats(dst *FSStats, s FSStats) {
	dst.WALAppendBytes += s.WALAppendBytes
	dst.WALSyncCount += s.WALSyncCount
	dst.WALSync += s.WALSync
	dst.WALRotateCount += s.WALRotateCount
	dst.WALRotateBytes += s.WALRotateBytes
	dst.SegWriteCount += s.SegWriteCount
	dst.SegWriteBytes += s.SegWriteBytes
	dst.SegSync += s.SegSync
	dst.SegRemoved += s.SegRemoved
	dst.DirSyncCount += s.DirSyncCount
	dst.DirSync += s.DirSync
	dst.ReadBytes += s.ReadBytes
}
