// Command xsp-server runs a standalone XSP tracing server. Tracers in
// other processes POST spans to /api/spans; the aggregated timeline trace
// is read back from /api/trace, and /api/reset clears it.
//
// The server is multi-tenant: requests carrying an X-Tenant header (or
// ?tenant= query parameter) route to that tenant's independent ingest
// domain — its own collector, batch-dedup window, streaming correlator,
// and durable state — and requests carrying neither route to the
// "default" tenant with exactly the single-tenant behavior this server
// always had. Every /api endpoint resolves the tenant the same way;
// GET /api/tenants lists the tenants the process has materialized.
// Tenants are created lazily on first use, and feeds for distinct tenants
// run concurrently on a bounded worker pool (-tenant-workers, default
// GOMAXPROCS), so a multi-tenant ingest load spreads across cores while
// each tenant keeps strict per-tenant ordering and exactly-once dedup.
//
// With -stream-correlate, a core.StreamCorrelator per tenant taps the
// ingestion path (a Memory-level tap, so any future in-process publisher
// is covered too) and resolves span parents online as batches arrive,
// instead of leaving correlation to whoever fetches the trace. The
// correlated view is served from /api/correlated; GET it with ?flush=1 to
// finalize pending work (device-only executions, buffered reordered
// arrivals, stragglers — stragglers repair a bounded region, not the
// whole trace, and one reaching behind the checkpoint horizon takes just
// that region's spans back out of it: the X-Stream-Reopens response header
// counts those repairs) exactly as a batch correlation would. /api/trace keeps
// serving the spans as published, from the same store — the correlator
// links the decoded spans themselves, a streamed span is held once, and
// /api/trace is its history with its links masked out: every batch whose 202
// has returned and, durable, everything recovered (only -shed-policy
// drop|degrade, which promise a shed batch stays in the raw store, keep one,
// beside a correlator on header-only copies) — and /api/reset clears the
// addressed tenant's collector and streaming state together — and only
// that tenant's. -reorder-window sets how much cross-shard arrival skew
// (in virtual-clock duration) the stream absorbs in order, and -retain
// bounds the live correlator state on a long-running server: finalized
// history older than the retain window folds into immutable checkpoint
// segments (POST /api/checkpoint folds on demand) that /api/correlated
// merges back seamlessly. For always-on ingest, -max-window-spans keeps
// checkpoints flowing under sustained pipelined overlap (degraded windows
// close at the bound and chain successors) and -corr-retain ages
// correlation-id entries out past the device queue depth, so no table
// grows with total launches; batches POSTed with an X-Batch-Id header
// ingest exactly once across client retries.
//
// Overload control: -max-inflight-spans and -max-inflight-bytes give the
// server an admission budget — past it, span POSTs are shed with 429 and a
// Retry-After hint (-retry-after) instead of accepted unboundedly — and
// -pressure-spans puts the same back-pressure under each streaming
// correlator's live-state budget, so shedding is driven by the component
// whose memory actually grows. The byte budget is process-wide; the span
// budget and pressure signal are per tenant, so an overdriven tenant
// sheds alone while its neighbors keep landing batches first-try. Each
// tenant's correlator tap runs asynchronously behind a bounded queue
// (-tap-queue spans; 0 restores the inline synchronous tap) whose
// overflow behavior is -shed-policy: "block" applies backpressure to the
// publish path, "drop" sheds the overflowing batch, "degrade" sheds the
// whole stream until the queue drains. A batch so shed is never lost — under
// those two policies it stays in the raw store and a batch re-correlate of
// /api/trace covers it — and shed clients retry safely under their batch
// ids. GET /api/overload reports the admission, tap, and pressure
// counters, per tenant.
//
// Durability: -data-dir names a directory the streaming state survives
// crashes in (it implies -stream-correlate). The default tenant's store
// lives at the directory root — a data directory written by a pre-tenant
// build recovers as the default tenant unchanged — and every other
// tenant's under tenants/<key>, so one tenant's WAL, segments, and
// quarantine never touch another's; each recovers independently at boot.
// Every accepted span batch is fsynced to its tenant's write-ahead log
// before its 202 is written — the ack is the durability barrier — and
// checkpoint folds spill to immutable, checksummed segment files, so on
// restart the server recovers each tenant's exact pre-crash correlated
// state (and its batch-dedup window: a client retrying a batch the
// crashed process acknowledged gets the duplicate ack, not a second
// publish). GET /api/durability reports every tenant's store stats and
// recovery outcome; POST /api/reset wipes the addressed tenant's durable
// state along with its in-memory state. In durable mode correlators
// consume batches synchronously at the ack barrier, so -tap-queue and
// -shed-policy are ignored.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
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

// tenantRuntime is what main wires per tenant beyond the trace.Server's
// own state: the core-side stream, in non-durable stream mode the async
// tap in front of it, and with -live-analysis the tenant's online
// analysis engine (attached as the correlator's observer before recovery,
// so it has seen the tenant's whole accepted history).
type tenantRuntime struct {
	stream   *core.TenantStream
	tap      *trace.AsyncTap
	analysis *analysis.Online
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7777", "listen address")
	stream := flag.Bool("stream-correlate", false, "resolve span parents online at ingest; serves /api/correlated")
	dataDir := flag.String("data-dir", "", "directory for the durable segment stores + WALs, one per tenant (default tenant at the root, others under tenants/<key>); batches are fsynced before they are acknowledged and each tenant's streaming state recovers exactly on restart (implies -stream-correlate)")
	window := flag.Duration("reorder-window", time.Millisecond, "virtual-time arrival skew absorbed in order by -stream-correlate")
	retain := flag.Duration("retain", 0, "virtual-time length of finalized history kept live for cheap straggler repair; older history folds into checkpoints (0 keeps everything live)")
	corrRetain := flag.Duration("corr-retain", 0, "virtual-time retention horizon for correlation-id entries — size to the device queue depth; execs later than this resolve by containment (0 retains forever)")
	maxWindow := flag.Int("max-window-spans", 0, "span bound at which a degraded window closes and chains a successor, keeping checkpoints flowing under sustained pipelined overlap (0 applies the default, negative disables)")
	maxSpans := flag.Int("max-inflight-spans", 0, "per-tenant admission budget: decoded spans not yet landed plus the tenant's tap queue backlog; past it the tenant's span POSTs shed with 429 (0 unlimited)")
	maxBytes := flag.Int64("max-inflight-bytes", 0, "process-wide admission budget: request body bytes in flight, reserved from Content-Length; past it span POSTs shed with 429 (0 unlimited)")
	tapQueue := flag.Int("tap-queue", trace.DefaultTapQueue, "bound, in spans, of each tenant's async correlator tap queue; 0 runs the taps inline on the publish path")
	shedPolicy := flag.String("shed-policy", "block", "tap overflow behavior: block (backpressure), drop (shed overflowing batch), degrade (shed stream until drained)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 push-backs")
	pressureSpans := flag.Int("pressure-spans", 0, "per-tenant live-span budget of the streaming correlator; at it the tenant reports overloaded and its ingest sheds (0 disables the signal)")
	tenantWorkers := flag.Int("tenant-workers", 0, "bound on tenants' correlator feeds running concurrently (0 = GOMAXPROCS)")
	liveAnalysis := flag.Bool("live-analysis", false, "maintain the paper's analyses online per tenant as spans stream in; serves GET /api/analysis/{layers,launchgaps,memcpy,roofline} as JSON or SSE (implies -stream-correlate)")
	gpuName := flag.String("gpu", gpu.TeslaV100.Name, "GPU system the live analyses classify kernels against (roofline ridge point); one of the paper's Table VII systems")
	flag.Parse()

	pol, err := trace.ParseShedPolicy(*shedPolicy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsp-server: %v\n", err)
		os.Exit(2)
	}
	srv := trace.NewServer()
	if *maxSpans > 0 || *maxBytes > 0 || *pressureSpans > 0 {
		srv.SetAdmission(trace.AdmissionPolicy{
			MaxInflightBytes: *maxBytes,
			MaxInflightSpans: *maxSpans,
			RetryAfter:       *retryAfter,
		})
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv)
	handler := http.Handler(mux)
	if *dataDir != "" || *liveAnalysis {
		*stream = true
	}
	gpuSpec := gpu.TeslaV100
	if *liveAnalysis {
		found := false
		for _, s := range gpu.Systems {
			if s.Name == *gpuName {
				gpuSpec, found = s, true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "xsp-server: unknown -gpu %q\n", *gpuName)
			os.Exit(2)
		}
	}

	var (
		tenants *core.TenantSet
		rtMu    sync.Mutex
		rts     = map[string]*tenantRuntime{}
	)
	lookupRt := func(key string) *tenantRuntime {
		rtMu.Lock()
		defer rtMu.Unlock()
		return rts[trace.CanonicalTenant(key)]
	}
	// requestRt resolves the tenant an /api request addresses to its
	// runtime, without materializing unknown tenants on reads: a nil, nil
	// return means "tenant does not exist (yet)" and the endpoint serves
	// its empty answer.
	requestRt := func(w http.ResponseWriter, r *http.Request) (*tenantRuntime, error) {
		key, err := trace.RequestTenant(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return nil, err
		}
		return lookupRt(key), nil
	}

	mux.HandleFunc("/api/tenants", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		keys := srv.Tenants()
		if keys == nil {
			keys = []string{}
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(keys); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	mux.HandleFunc("/api/overload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		type tenantView struct {
			Admission trace.OverloadStats  `json:"admission"`
			Tap       *trace.AsyncTapStats `json:"tap,omitempty"`
			Pressure  string               `json:"pressure,omitempty"`
			Load      *core.Load           `json:"load,omitempty"`
		}
		type overloadView struct {
			Admission trace.OverloadStats   `json:"admission"`
			Tenants   map[string]tenantView `json:"tenants,omitempty"`
		}
		v := overloadView{Admission: srv.OverloadStats(), Tenants: map[string]tenantView{}}
		srv.EachTenant(func(tn *trace.ServerTenant) {
			tv := tenantView{Admission: tn.OverloadStats()}
			if rt := lookupRt(tn.Key()); rt != nil {
				if rt.tap != nil {
					st := rt.tap.Stats()
					tv.Tap = &st
				}
				sc := rt.stream.Correlator()
				tv.Pressure = sc.Pressure().String()
				l := sc.Load()
				tv.Load = &l
			}
			v.Tenants[tn.Key()] = tv
		})
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	if *stream {
		// Where nothing can shed a batch on its way to the correlator — the
		// synchronous durable sink, an inline tap, a blocking queue — the
		// correlator's history is the tenant's one span store: it links the
		// decoded spans themselves and /api/trace masks its links back out. A
		// drop|degrade tap promises a shed batch stays in the raw store: there
		// it stays, beside header copies the raw view's readers never race.
		oneStore := *dataDir != "" || *tapQueue <= 0 || pol == trace.ShedBlock
		setOpts := core.TenantSetOptions{
			Stream: core.StreamOptions{
				ReorderWindow:  vclock.Duration(*window),
				Isolated:       !oneStore,
				Retain:         vclock.Duration(*retain),
				CorrRetain:     vclock.Duration(*corrRetain),
				MaxWindowSpans: *maxWindow,
				PressureSpans:  *pressureSpans,
			},
			Workers: *tenantWorkers,
		}
		var (
			engMu   sync.Mutex
			engines = map[string]*analysis.Online{}
		)
		if *liveAnalysis {
			// The engine attaches as the stream's observer before the
			// correlator is built — and, in durable mode, before recovery
			// replays the tenant's history — so a restarted server's live
			// analyses cover everything its correlated view does.
			setOpts.InitStream = func(tenant string, opts core.StreamOptions) core.StreamOptions {
				eng := analysis.NewOnline(analysis.OnlineOptions{Spec: gpuSpec})
				engMu.Lock()
				engines[tenant] = eng
				engMu.Unlock()
				opts.Observer = eng
				return opts
			}
		}
		if *dataDir != "" {
			setOpts.OpenStore = func(tenant string) (*segio.Store, *segio.Recovery, error) {
				dir := *dataDir
				if tenant != trace.DefaultTenant {
					dir = filepath.Join(*dataDir, "tenants", tenant)
				}
				if err := os.MkdirAll(dir, 0o755); err != nil {
					return nil, nil, err
				}
				fs, err := segio.DirFS(dir)
				if err != nil {
					return nil, nil, err
				}
				return segio.Open(fs, segio.Options{})
			}
		}
		tenants = core.NewTenantSet(setOpts)

		// The init hook wires every lazily created tenant before any
		// request reaches it: the per-tenant correlator as load reporter,
		// and as durable sink (durable mode — recovered spans and dedup ids
		// seeded first) or behind the tenant's async tap (RAM mode).
		srv.SetTenantInit(func(tn *trace.ServerTenant) {
			st, err := tenants.Stream(tn.Key())
			if err != nil {
				// Unreachable: the server validated the key before the hook.
				fmt.Fprintf(os.Stderr, "xsp-server: tenant %s: %v\n", tn.Key(), err)
				return
			}
			tn.SetLoad(st)
			rt := &tenantRuntime{stream: st}
			if *liveAnalysis {
				engMu.Lock()
				rt.analysis = engines[tn.Key()]
				engMu.Unlock()
			}
			if *dataDir != "" {
				if err := st.Err(); err != nil {
					fmt.Fprintf(os.Stderr, "xsp-server: tenant %s degraded to RAM-only: %v\n", tn.Key(), err)
				}
				if rec := st.Recovery(); rec != nil {
					// The recovered dedup window makes client retries of
					// pre-crash acked batches duplicate-ack instead of
					// double-publish.
					tn.SeedBatches(rec.DedupIDs)
					fmt.Fprintf(os.Stderr, "xsp-server: tenant %s recovered %d segment(s), %d live batch record(s), %d dedup id(s)\n",
						tn.Key(), len(rec.Segments), len(rec.Batches), len(rec.DedupIDs))
				}
				// Batches reach the correlator synchronously at the ack
				// barrier (WAL fsync before the 202), replacing the tap.
				tn.SetDurable(st)
			} else if *tapQueue > 0 {
				rt.tap = tn.SetTapAsync(st, trace.TapOptions{Queue: *tapQueue, Policy: pol})
			} else {
				tn.SetTap(st)
			}
			if oneStore {
				tn.SetHistory(func() *trace.Trace {
					if rt.tap != nil {
						rt.tap.Flush() // a batch whose 202 has returned is in the view
					}
					return st.Correlator().SnapshotRaw()
				})
			}
			rtMu.Lock()
			rts[tn.Key()] = rt
			rtMu.Unlock()
		})

		// The default tenant exists from boot — the common single-tenant
		// deployment recovers (or starts) its stream before the first
		// request — and in durable mode every tenant with on-disk state
		// comes back too, so no tenant's recovery waits for its first POST.
		srv.Tenant(trace.DefaultTenant)
		if *dataDir != "" {
			if entries, err := os.ReadDir(filepath.Join(*dataDir, "tenants")); err == nil {
				for _, e := range entries {
					if e.IsDir() && trace.ValidateTenant(e.Name()) == nil {
						srv.Tenant(e.Name())
					}
				}
			}
		}

		if *dataDir != "" {
			mux.HandleFunc("/api/durability", func(w http.ResponseWriter, r *http.Request) {
				if r.Method != http.MethodGet {
					http.Error(w, "GET required", http.StatusMethodNotAllowed)
					return
				}
				type recoveryView struct {
					Segments           int      `json:"segments"`
					BatchRecords       int      `json:"batch_records"`
					DedupIDs           int      `json:"dedup_ids"`
					Quarantined        []string `json:"quarantined,omitempty"`
					SupersededSegments int      `json:"superseded_segments,omitempty"`
					WALTruncatedBytes  int64    `json:"wal_truncated_bytes,omitempty"`
				}
				type tenantDurabilityView struct {
					Dir      string        `json:"dir"`
					Store    *segio.Stats  `json:"store,omitempty"`
					Err      string        `json:"err,omitempty"`
					Recovery *recoveryView `json:"recovery,omitempty"`
				}
				type durabilityView struct {
					Dir     string                          `json:"dir"`
					Tenants map[string]tenantDurabilityView `json:"tenants"`
				}
				v := durabilityView{Dir: *dataDir, Tenants: map[string]tenantDurabilityView{}}
				tenants.Each(func(st *core.TenantStream) {
					dir := *dataDir
					if st.Key() != trace.DefaultTenant {
						dir = filepath.Join(*dataDir, "tenants", st.Key())
					}
					tv := tenantDurabilityView{Dir: dir}
					if store := st.Store(); store != nil {
						stats := store.Stats()
						tv.Store = &stats
					}
					if rec := st.Recovery(); rec != nil {
						tv.Recovery = &recoveryView{
							Segments:           len(rec.Segments),
							BatchRecords:       len(rec.Batches),
							DedupIDs:           len(rec.DedupIDs),
							Quarantined:        rec.Quarantined,
							SupersededSegments: rec.SupersededSegments,
							WALTruncatedBytes:  rec.WALTruncatedBytes,
						}
					}
					if err := st.Err(); err != nil {
						tv.Err = err.Error()
					} else if err := st.Correlator().DurabilityErr(); err != nil {
						tv.Err = err.Error()
					}
					v.Tenants[st.Key()] = tv
				})
				w.Header().Set("Content-Type", "application/json")
				if err := json.NewEncoder(w).Encode(v); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
			})
		}
		mux.HandleFunc("/api/reset", func(w http.ResponseWriter, r *http.Request) {
			// The reset must reach both sides of the addressed tenant's tap,
			// or its correlated view would keep serving (and mis-parenting
			// against) spans from a run its collector no longer holds. Only
			// that tenant: a neighbor's dedup window, received count, and
			// correlator state survive untouched.
			rt, err := requestRt(w, r)
			if err != nil {
				return
			}
			srv.ServeHTTP(w, r)
			if r.Method == http.MethodPost && rt != nil {
				if rt.tap != nil {
					rt.tap.Flush() // drain queued batches before they land in a reset correlator
				}
				rt.stream.Correlator().Reset()
				if rt.analysis != nil {
					// After the correlator: queued batches flushed above must
					// not land in an already-reset engine.
					rt.analysis.Reset()
				}
			}
		})
		mux.HandleFunc("/api/checkpoint", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			rt, err := requestRt(w, r)
			if err != nil {
				return
			}
			folded := 0
			if rt != nil {
				folded = rt.stream.Correlator().Checkpoint()
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"folded\":%d}\n", folded)
		})
		mux.HandleFunc("/api/correlated", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				http.Error(w, "GET required", http.StatusMethodNotAllowed)
				return
			}
			rt, err := requestRt(w, r)
			if err != nil {
				return
			}
			var snap *trace.Trace
			if rt == nil {
				// Unknown tenant: the empty correlated view it would have,
				// without materializing a stream for a typo.
				snap = &trace.Trace{}
			} else {
				sc := rt.stream.Correlator()
				if r.URL.Query().Get("flush") != "" {
					if rt.tap != nil {
						rt.tap.Flush() // queued batches count as pending work too
					}
					sc.Flush()
				}
				st := sc.Stats()
				w.Header().Set("X-Stream-Released", fmt.Sprint(st.Released))
				w.Header().Set("X-Stream-Pending", fmt.Sprint(st.Buffered+st.PendingExecs))
				w.Header().Set("X-Stream-Stragglers", fmt.Sprint(st.Stragglers))
				w.Header().Set("X-Stream-Degraded-Windows", fmt.Sprint(st.DegradedWindows))
				w.Header().Set("X-Stream-Windows-Chained", fmt.Sprint(st.WindowsChained))
				w.Header().Set("X-Stream-Repaired", fmt.Sprint(st.Repaired))
				w.Header().Set("X-Stream-Live", fmt.Sprint(st.Live))
				w.Header().Set("X-Stream-Checkpointed", fmt.Sprint(st.Checkpointed))
				w.Header().Set("X-Stream-Segments", fmt.Sprint(st.Segments))
				w.Header().Set("X-Stream-Compactions", fmt.Sprint(st.Compactions))
				w.Header().Set("X-Stream-Reopens", fmt.Sprint(st.Reopens))
				w.Header().Set("X-Stream-Corr-Entries", fmt.Sprint(st.CorrEntries))
				w.Header().Set("X-Stream-Corr-Evicted", fmt.Sprint(st.CorrEvicted))
				snap = sc.SnapshotTrace()
				snap.Tenant = rt.stream.Key()
			}
			// Same negotiation as /api/trace: binary when explicitly
			// accepted, JSON for everything else.
			if trace.AcceptsBinary(r.Header.Get("Accept")) {
				w.Header().Set("Content-Type", trace.ContentTypeBinary)
				if err := snap.EncodeBinary(w); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if err := snap.EncodeJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		if *liveAnalysis {
			// One engine that is never fed serves the zero-valued answer
			// for tenants that do not exist yet, without materializing them.
			emptyEngine := analysis.NewOnline(analysis.OnlineOptions{Spec: gpuSpec})
			// Each view is one snapshot method; the combined /api/analysis
			// returns all of them under one lock acquisition.
			views := map[string]func(*analysis.Online) any{
				"":           func(e *analysis.Online) any { return e.Snapshot() },
				"layers":     func(e *analysis.Online) any { return e.LayersSnapshot() },
				"launchgaps": func(e *analysis.Online) any { return e.LaunchGapsSnapshot() },
				"memcpy":     func(e *analysis.Online) any { return e.MemcpySnapshot() },
				"roofline":   func(e *analysis.Online) any { return e.RooflineSnapshot() },
			}
			analysisHandler := func(w http.ResponseWriter, r *http.Request) {
				if r.Method != http.MethodGet {
					http.Error(w, "GET required", http.StatusMethodNotAllowed)
					return
				}
				part := strings.Trim(strings.TrimPrefix(r.URL.Path, "/api/analysis"), "/")
				view, ok := views[part]
				if !ok {
					http.Error(w, "unknown analysis view", http.StatusNotFound)
					return
				}
				rt, err := requestRt(w, r)
				if err != nil {
					return
				}
				eng := emptyEngine
				if rt != nil && rt.analysis != nil {
					eng = rt.analysis
					if r.URL.Query().Get("flush") != "" {
						// Finalize pending correlator work (buffered arrivals,
						// stragglers) into the analyses, like /api/correlated.
						if rt.tap != nil {
							rt.tap.Flush()
						}
						rt.stream.Correlator().Flush()
					}
				}

				if strings.Contains(r.Header.Get("Accept"), "text/event-stream") || r.URL.Query().Get("watch") != "" {
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
						interval = d
					}
					w.Header().Set("Content-Type", "text/event-stream")
					w.Header().Set("Cache-Control", "no-cache")
					w.WriteHeader(http.StatusOK)
					tick := time.NewTicker(interval)
					defer tick.Stop()
					enc := json.NewEncoder(w)
					for {
						// One event per tick: the current snapshot, so a
						// consumer that connects mid-ingest always converges on
						// the live totals without replaying history.
						fmt.Fprintf(w, "event: analysis\ndata: ")
						if err := enc.Encode(view(eng)); err != nil {
							return
						}
						fmt.Fprint(w, "\n")
						fl.Flush()
						select {
						case <-r.Context().Done():
							return
						case <-tick.C:
						}
					}
				}

				w.Header().Set("X-Analysis-Spans", fmt.Sprint(eng.SpansObserved()))
				w.Header().Set("X-Analysis-GPU", gpuSpec.Name)
				w.Header().Set("Content-Type", "application/json")
				if err := json.NewEncoder(w).Encode(view(eng)); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
			}
			mux.HandleFunc("/api/analysis", analysisHandler)
			mux.HandleFunc("/api/analysis/", analysisHandler)
			fmt.Fprintf(os.Stderr, "xsp-server: live analyses on (%s)\n", gpuSpec.Name)
		}
		fmt.Fprintf(os.Stderr, "xsp-server: streaming correlation on (reorder window %s, retain %s)\n", *window, *retain)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsp-server: %v\n", err)
		os.Exit(1)
	}
	// The resolved address (meaningful with ":0") goes to stderr so a
	// supervising process can parse the port.
	fmt.Fprintf(os.Stderr, "xsp-server: tracing server listening on %s\n", ln.Addr())
	if err := http.Serve(ln, handler); err != nil {
		fmt.Fprintf(os.Stderr, "xsp-server: %v\n", err)
		os.Exit(1)
	}
}
