package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"xsp/internal/core"
	"xsp/internal/segio"
	"xsp/internal/trace"
)

// setupStarts is how many server starts setup_s is the median of.
const setupStarts = 7

// Config is one run of one workload.
type Config struct {
	Root     string  // repository root: where ./cmd/xsp-server is built from
	BuildDir string  // the server binary, temporary data directories and traces go here
	Seed     int64   // tenant t generates from Seed+t
	Seconds  float64 // sizes the run: Workload.BatchesPerSec × Seconds batches per tenant
	Scale    float64 // multiplies Seconds and the repetition size; 1 except in the smoke test
	Trace    bool    // also run the traced replica and the stage calls
	TraceDir string  // where a traced run is saved; BuildDir/traces when empty
	Log      io.Writer
}

// Result is what one run measured. Values holds every metric the run
// computed, end-to-end and per-layer alike, by name.
type Result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Values   map[string]float64 `json:"values"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`

	SelfSeconds map[string]float64 `json:"self_seconds,omitempty"` // per layer, from the traced run
	WallSeconds float64            `json:"wall_seconds,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

func (r *Result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Errors) < 16 {
			r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
		}
	}
}

// binaryView is what the real binary reported about itself when the
// window closed, kept for the replica honesty check.
type binaryView struct {
	Store *segio.Stats
	Load  *core.Load
	Tap   *trace.AsyncTapStats
}

var dataDirSeq atomic.Int64

// Run measures one workload: Rounds rounds against the real binary, each
// on a fresh server process and data directory with its own correctness
// checks, reported as the per-metric median over rounds; and with
// cfg.Trace one more round through the replica, then the stage calls.
func Run(cfg Config, w Workload) (res *Result, err error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	res = &Result{Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Values: make(map[string]float64)}
	v := res.Values

	r := &runner{cfg: cfg, w: w, res: res, place: planPlacement()}
	if r.place.ok {
		pinProcess(r.place.loadgen)
		defer pinProcess(r.place.all)
	}

	var buildTook time.Duration
	if r.bin, buildTook, err = BuildServer(cfg.Root, cfg.BuildDir); err != nil {
		return nil, err
	}

	genStart := time.Now()
	repSpans := max(int(float64(RepSpans)*cfg.Scale), 4*BatchSpans)
	r.inputs = Generate(w, cfg.Seed, repSpans)
	genTook := time.Since(genStart)

	rounds := Rounds
	if cfg.Scale < 1 {
		rounds = 1
	}
	r.batches = PlanBatches(w, cfg.Seconds*cfg.Scale/float64(rounds))

	r.transport = &http.Transport{MaxIdleConns: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	defer r.transport.CloseIdleConnections()
	r.client = &http.Client{Transport: r.transport}
	// Whatever happens, no data directory outlives the run.
	defer os.RemoveAll(filepath.Join(cfg.BuildDir, "data"))

	// Set-up: exec → ready on a fresh data directory. Every round is one
	// sample; a few bare starts bring the count to setupStarts.
	for i := rounds; i < setupStarts && cfg.Scale >= 1; i++ {
		dir := r.newDataDir()
		srv, err := r.start(dir)
		if err != nil {
			return nil, err
		}
		srv.Kill()
		r.transport.CloseIdleConnections()
		os.RemoveAll(dir)
	}

	logf("%s: seed %d, %d round(s) of %d batches per tenant against the real binary", w.Name, cfg.Seed, rounds, r.batches)
	perRound := make([]map[string]float64, rounds)
	var view binaryView
	for i := range perRound {
		if perRound[i], view, err = r.round(); err != nil {
			return nil, err
		}
	}
	for name := range perRound[0] {
		xs := make([]float64, rounds)
		for i, m := range perRound {
			xs[i] = m[name]
		}
		v[name] = median(xs)
	}
	v["setup_s"] = median(r.setups)
	v["loadgen.build_s"] = buildTook.Seconds()
	v["loadgen.gen_s"] = genTook.Seconds()

	if cfg.Trace {
		if r.place.ok {
			pinProcess(r.place.all) // the replica is the server too
		}
		if err := runTraced(cfg, w, r.inputs, r.batches, view, res, r.transport, r.newDataDir(), logf); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Rounds is how many times a run repeats the workload against the real
// binary. On a shared two-core box whole stretches of seconds run slow, so
// three short rounds and their median hold still better than one long one.
const Rounds = 3

// runner is the state the rounds of one run share.
type runner struct {
	cfg   Config
	w     Workload
	res   *Result
	place placement

	bin       string
	inputs    []*Input
	batches   int
	transport *http.Transport
	client    *http.Client
	setups    []float64
}

func (r *runner) newDataDir() string {
	return filepath.Join(r.cfg.BuildDir, "data", fmt.Sprintf("%s-%d-%d", r.w.Name, os.Getpid(), dataDirSeq.Add(1)))
}

// start execs the server on dataDir and notes its set-up time.
func (r *runner) start(dataDir string) (*Server, error) {
	srv, err := StartServer(r.bin, r.w.ServerArgs(dataDir), r.client, r.place)
	if err == nil {
		r.setups = append(r.setups, srv.Setup.Seconds())
	}
	return srv, err
}

// round is one complete measurement against a fresh server: the load, the
// readings when its flush returned, every correctness check, and the
// SIGKILL-and-recover tail of a restarting workload. The server is dead
// and its data directory gone when it returns.
func (r *runner) round() (map[string]float64, binaryView, error) {
	w, res := r.w, r.res
	v := make(map[string]float64)
	var view binaryView
	dataDir := r.newDataDir()
	defer os.RemoveAll(dataDir)
	srv, err := r.start(dataDir)
	if err != nil {
		return nil, view, err
	}
	defer func() {
		srv.Kill()
		r.transport.CloseIdleConnections()
	}()
	ready, err := srv.Sample()
	if err != nil {
		return nil, view, err
	}

	tgt := Target{BaseURL: srv.BaseURL, Transport: r.transport}
	load := RunLoad(w, r.inputs, tgt, r.batches)
	end, err := srv.Sample()
	if err != nil {
		return nil, view, err
	}
	if !w.Reads {
		QueryQuiescent(tgt, load, r.inputs[0].Tenant)
	}
	if view, err = readBinaryView(r.client, srv.BaseURL, w); err != nil {
		return nil, view, err
	}
	spans := loadMetrics(v, load, ready, end)
	checkLoad(res, w, load)
	if view.Tap != nil {
		v["trace.tap.enqueued"] = float64(view.Tap.Enqueued)
		v["trace.tap.max_depth"] = float64(view.Tap.MaxDepth)
	}
	if w.Durable {
		if view.Store != nil {
			v["cmd.xsp-server.store_segments"] = float64(view.Store.Segments)
			v["cmd.xsp-server.store_segment_bytes"] = float64(view.Store.SegmentBytes)
			v["cmd.xsp-server.store_wal_bytes"] = float64(view.Store.WALBytes)
		}
		disk, err := dirBytes(dataDir)
		if err != nil {
			return nil, view, err
		}
		v["cmd.xsp-server.disk_bytes_per_span"] = float64(disk) / float64(spans)
	}

	if w.Reads {
		// After the window: the whole correlated trace, finalized, against
		// a batch correlation of exactly what was sent.
		checkCorrelated(res, r.client, srv.BaseURL, r.inputs[0], load.Tenants[0].Batches)
	}
	if after, err := srv.Sample(); err == nil {
		v["cmd.xsp-server.rss_after_query_bytes"] = float64(after.RSS)
	}

	if w.Restart {
		srv.Kill()
		r.transport.CloseIdleConnections()
		start := time.Now()
		restarted, err := StartServer(r.bin, w.ServerArgs(dataDir), r.client, r.place)
		if err != nil {
			return nil, view, err
		}
		srv = restarted
		// The recovered live tail waits in the reorder buffer again, so the
		// analyses count every span only once a flush has released it.
		hdr, _, gerr := get(r.client, srv.BaseURL+"/api/analysis/memcpy?flush=1", "", 0)
		v["cmd.xsp-server.recover_s"] = time.Since(start).Seconds()
		recovered := int64(-1)
		if gerr == nil {
			recovered, _ = strconv.ParseInt(hdr.Get("X-Analysis-Spans"), 10, 64)
		}
		res.check(recovered == int64(spans), "after SIGKILL and restart the server holds %d spans, %d were acknowledged", recovered, spans)
		checkDurability(res, r.client, srv.BaseURL)
	}
	return v, view, nil
}

// loadMetrics turns the load generator's and /proc's readings into the
// end-to-end metrics and the load-generator, collector and binary layers.
// It returns the spans sent over all tenants.
func loadMetrics(v map[string]float64, load *LoadResult, ready, end ProcSample) int {
	spans := 0
	for _, t := range load.Tenants {
		spans += t.Spans
	}
	n := float64(max(spans, 1))
	v["ingest_spans_per_s"] = n / load.Window.Seconds()
	v["rss_peak_bytes_per_span"] = float64(end.HWM-ready.RSS) / n

	v["loadgen.gen_frac"] = load.GenBusy.Seconds() / load.Window.Seconds()
	v["loadgen.late_frac"] = float64(load.Late) / float64(max(len(load.AckMS), 1))
	v["loadgen.wire_bytes"] = float64(load.WireBytes)
	v["loadgen.spans"] = float64(spans)

	v["trace.collector.flush_calls"] = float64(len(load.AckMS))
	v["trace.collector.encode_busy_s"] = (load.FlushBusy - load.PostWait).Seconds()
	v["trace.collector.post_wait_s"] = load.PostWait.Seconds()
	v["trace.collector.retries"] = float64(load.Retries)
	v["trace.collector.ack_p99_ms"] = percentile(load.AckMS, 99)
	v["trace.collector.ack_max_ms"] = maxOf(load.AckMS)
	v["trace.tap.drain_ms"] = ms(load.Drain)

	v["analysis.online.snapshot_json_bytes"] = float64(load.AnalysisBytes)
	v["analysis.online.layer_rows"] = float64(load.LayerRows)

	cpu := (end.User - ready.User) + (end.Sys - ready.Sys)
	v["cmd.xsp-server.cpu_user_s"] = (end.User - ready.User).Seconds()
	v["cmd.xsp-server.cpu_sys_s"] = (end.Sys - ready.Sys).Seconds()
	v["cmd.xsp-server.cpu_ns_per_span"] = float64(cpu) / n
	v["cmd.xsp-server.io_write_bytes"] = float64(end.WriteBytes - ready.WriteBytes)
	v["cmd.xsp-server.rss_ready_bytes"] = float64(ready.RSS)
	v["cmd.xsp-server.rss_end_bytes"] = float64(end.RSS)
	v["cmd.xsp-server.ack_p50_ms"] = percentile(load.AckMS, 50)
	v["cmd.xsp-server.ack_p95_ms"] = percentile(load.AckMS, 95)
	v["cmd.xsp-server.query_analysis_p50_ms"] = percentile(load.AnalysisMS, 50)
	v["cmd.xsp-server.query_analysis_p95_ms"] = percentile(load.AnalysisMS, 95)
	v["cmd.xsp-server.query_correlated_us_per_kspan"] = median(load.CorrelatedUSPer)
	v["cmd.xsp-server.ack_samples"] = float64(len(load.AckMS))
	v["cmd.xsp-server.query_analysis_samples"] = float64(len(load.AnalysisMS))
	return spans
}

// readBinaryView asks the real binary for its own counters.
func readBinaryView(client *http.Client, baseURL string, w Workload) (binaryView, error) {
	var view binaryView
	_, body, err := get(client, baseURL+"/api/overload", "", 0)
	if err != nil {
		return view, fmt.Errorf("bench: GET /api/overload: %w", err)
	}
	var overload struct {
		Tenants map[string]struct {
			Tap  *trace.AsyncTapStats `json:"tap"`
			Load *core.Load           `json:"load"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(body, &overload); err != nil {
		return view, fmt.Errorf("bench: /api/overload: %w", err)
	}
	for _, key := range sortedKeys(overload.Tenants) {
		t := overload.Tenants[key]
		if t.Load != nil {
			if view.Load == nil {
				view.Load = &core.Load{}
			}
			view.Load.LiveSpans += t.Load.LiveSpans
			view.Load.Buffered += t.Load.Buffered
			view.Load.PendingExecs += t.Load.PendingExecs
			view.Load.WindowSpans += t.Load.WindowSpans
		}
		if t.Tap != nil {
			if view.Tap == nil {
				view.Tap = &trace.AsyncTapStats{}
			}
			view.Tap.Enqueued += t.Tap.Enqueued
			view.Tap.MaxDepth = max(view.Tap.MaxDepth, t.Tap.MaxDepth)
		}
	}
	if !w.Durable {
		return view, nil
	}
	_, body, err = get(client, baseURL+"/api/durability", "", 0)
	if err != nil {
		return view, fmt.Errorf("bench: GET /api/durability: %w", err)
	}
	var dur durabilityView
	if err := json.Unmarshal(body, &dur); err != nil {
		return view, fmt.Errorf("bench: /api/durability: %w", err)
	}
	for _, t := range dur.Tenants {
		if t.Store != nil {
			if view.Store == nil {
				view.Store = &segio.Stats{}
			}
			view.Store.Segments += t.Store.Segments
			view.Store.SegmentBytes += t.Store.SegmentBytes
			view.Store.WALBytes += t.Store.WALBytes
			view.Store.WALRecords += t.Store.WALRecords
			view.Store.DedupIDs += t.Store.DedupIDs
		}
	}
	return view, nil
}

// durabilityView is the part of GET /api/durability the benchmark reads.
type durabilityView struct {
	Tenants map[string]struct {
		Store    *segio.Stats `json:"store"`
		Err      string       `json:"err"`
		Recovery *struct {
			Quarantined []string `json:"quarantined"`
		} `json:"recovery"`
	} `json:"tenants"`
}

// runTraced is the second half of a traced run: the same stream through
// the replica with every recorder on, the restart if the workload has one,
// the stage calls, the honesty check, and the saved trace.
func runTraced(cfg Config, w Workload, inputs []*Input, batches int, view binaryView, res *Result, transport *http.Transport, dataDir string, logf func(string, ...any)) error {
	v := res.Values
	// The replica is the server too, so this phase gets every core; the
	// load generator's goroutines still number at most nproc.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	defer os.RemoveAll(dataDir)

	spans := int(res.Values["loadgen.spans"])
	logf("%s: the same %d spans through the traced replica", w.Name, spans)

	rec := NewRecorder()
	root := rec.Begin("bench", w.Name, DepthRun, 0, 0)
	heapBefore := heapAfterGC()
	rp := NewReplica(w, dataDir, rec, root)
	tgt := Target{BaseURL: rp.BaseURL(), Transport: transport, Rec: rec, Root: root}
	load := RunLoad(w, inputs, tgt, batches)
	if !w.Reads {
		QueryQuiescent(tgt, load, inputs[0].Tenant)
	}
	counts := rp.Counts()
	probe := rec.Begin("loadgen", "heap_probe", DepthStage, root, 0)
	heapAfter := heapAfterGC()
	rec.End(probe)
	rp.Close()
	transport.CloseIdleConnections()
	checkLoad(res, w, load)
	for _, e := range counts.DurabilityErrs {
		res.check(false, "replica durability error: %s", e)
	}

	replicaSpans := 0
	for _, t := range load.Tenants {
		replicaSpans += t.Spans
	}
	res.check(replicaSpans == spans, "replica ingested %d spans, the binary %d", replicaSpans, spans)
	n := float64(max(replicaSpans, 1))

	if w.Durable {
		// The honesty check: same seed, same stream, one synchronous
		// publisher — the replica's store and correlator must end where the
		// real binary's did, or its wiring has drifted from main.go.
		res.check(view.Store != nil && counts.Store == *view.Store,
			"replica store stats %+v differ from the binary's /api/durability %+v", counts.Store, view.Store)
		want := core.Load{}
		if view.Load != nil {
			want = *view.Load
		}
		res.check(counts.Load == want, "replica correlator load %+v differs from the binary's /api/overload %+v", counts.Load, want)
	}

	var restart ReplicaCounts
	if w.Restart {
		rp2 := NewReplica(w, dataDir, rec, root)
		for _, rt := range rp2.runtimes() {
			rt.flush(root)
		}
		restart = rp2.Counts()
		res.check(restart.SpansObserved == int64(replicaSpans), "restarted replica observed %d spans, %d were acknowledged", restart.SpansObserved, replicaSpans)
		rp2.Close()
	}
	rec.End(root)

	v["replica.ingest_spans_per_s"] = n / load.Window.Seconds()
	v["replica.vs_binary_ratio"] = v["replica.ingest_spans_per_s"] / v["ingest_spans_per_s"]

	recorded := rec.Spans()
	self := LayerSelf(recorded)
	// The handler's self time: its spans minus the tap enqueue and, on a
	// durable workload, the feed, which run inside it.
	v["trace.server.handle_busy_s"] = self["trace.server"].Seconds()
	v["trace.server.posts_202"] = float64(counts.Posts202)
	v["trace.server.posts_429"] = float64(counts.Posts429)
	v["trace.server.posts_503"] = float64(counts.Posts503)
	v["trace.server.dup_acks"] = float64(counts.DupAcks)
	v["trace.tap.publish_wait_s"] = counts.Busy["enqueue"].Seconds()

	s := counts.Stream
	v["core.stream.feed_calls"] = float64(counts.Calls["feed"])
	v["core.stream.feed_busy_s"] = counts.Busy["feed"].Seconds()
	v["core.stream.flush_busy_s"] = counts.Busy["flush"].Seconds()
	v["core.stream.snapshot_calls"] = float64(counts.Calls["snapshot"])
	v["core.stream.snapshot_busy_s"] = counts.Busy["snapshot"].Seconds()
	v["core.stream.recover_busy_s"] = (restart.Busy["recover"] - restart.Busy["open"]).Seconds()
	v["core.stream.heap_bytes_per_span"] = float64(heapAfter-heapBefore) / n
	v["core.stream.released"] = float64(s.Released)
	v["core.stream.stragglers"] = float64(s.Stragglers)
	v["core.stream.repaired"] = float64(s.Repaired)
	v["core.stream.degraded_windows"] = float64(s.DegradedWindows)
	v["core.stream.windows_chained"] = float64(s.WindowsChained)
	v["core.stream.checkpointed"] = float64(s.Checkpointed)
	v["core.stream.segments"] = float64(s.Segments)
	v["core.stream.compactions"] = float64(s.Compactions)
	v["core.stream.reopens"] = float64(s.Reopens)
	v["core.stream.live_end"] = float64(s.Live)
	v["core.stream.corr_entries_end"] = float64(s.CorrEntries)
	v["core.tenantset.tenants"] = float64(counts.Tenants)

	fs := counts.FS
	v["segio.wal_append_bytes"] = float64(fs.WALAppendBytes)
	v["segio.wal_sync_count"] = float64(fs.WALSyncCount)
	v["segio.wal_sync_s"] = fs.WALSync.Seconds()
	v["segio.wal_rotate_count"] = float64(fs.WALRotateCount)
	v["segio.wal_rotate_bytes"] = float64(fs.WALRotateBytes)
	v["segio.seg_write_count"] = float64(fs.SegWriteCount)
	v["segio.seg_write_bytes"] = float64(fs.SegWriteBytes)
	v["segio.seg_sync_s"] = fs.SegSync.Seconds()
	v["segio.seg_removed"] = float64(fs.SegRemoved)
	v["segio.dir_sync_count"] = float64(fs.DirSyncCount)
	v["segio.dir_sync_s"] = fs.DirSync.Seconds()
	v["segio.read_bytes"] = float64(restart.FS.ReadBytes)
	v["segio.open_busy_s"] = restart.Busy["open"].Seconds()
	v["segio.write_amp"] = float64(fs.WrittenBytes()) / float64(max(load.WireBytes, 1))

	v["analysis.online.spans_observed"] = float64(counts.SpansObserved)
	v["analysis.online.snapshot_busy_s"] = counts.Busy["snapshot_json"].Seconds()
	v["analysis.online.observe_sampled_ns_per_span"] = counts.ObserveNSPer

	stages, err := RunStages(inputs[0])
	if err != nil {
		return err
	}
	v["trace.codec.encode_ns_per_span"] = stages.EncodeNSPerSpan
	v["trace.codec.decode_ns_per_span"] = stages.DecodeNSPerSpan
	v["trace.codec.decode_allocs_per_span"] = stages.DecodeAllocsPer
	v["trace.codec.wire_bytes_per_span"] = stages.WireBytesPerSpan
	v["trace.memory.publish_ns_per_span"] = stages.PublishNSPerSpan
	v["trace.memory.heap_bytes_per_span"] = stages.MemoryHeapPerSpan
	v["analysis.online.observe_ns_per_span"] = stages.ObserveNSPerSpan

	var wall time.Duration
	for _, sp := range recorded {
		if sp.ID == root {
			wall = sp.End - sp.Start
		}
	}
	res.WallSeconds = wall.Seconds()
	res.SelfSeconds = make(map[string]float64, len(self))
	for layer, d := range self {
		res.SelfSeconds[layer] = d.Seconds()
	}
	v["replica.unaccounted_frac"] = self["bench"].Seconds() / wall.Seconds()

	dir := cfg.TraceDir
	if dir == "" {
		dir = filepath.Join(cfg.BuildDir, "traces")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	res.TraceFile = filepath.Join(dir, fmt.Sprintf("%s.seed%d.xspb", w.Name, cfg.Seed))
	f, err := os.Create(res.TraceFile)
	if err != nil {
		return err
	}
	if err := ToTrace(recorded).EncodeBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
