package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"xsp/internal/analysis"
	"xsp/internal/core"
	"xsp/internal/gpu"
	"xsp/internal/server"
	"xsp/internal/trace"
	"xsp/internal/workload"
)

// buildServer compiles the xsp-server binary once into dir and returns
// its path.
func buildServer(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "xsp-server")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startServer launches the binary and returns the process and its base
// URL, parsed from the "listening on" stderr line (so ":0" picks a free
// port on first boot and the test pins it afterwards).
func startServer(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start server: %v", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 4096)
		var acc strings.Builder
		for {
			n, err := stderr.Read(buf)
			if n > 0 {
				acc.Write(buf[:n])
				for {
					line, rest, ok := strings.Cut(acc.String(), "\n")
					if !ok {
						break
					}
					acc.Reset()
					acc.WriteString(rest)
					if _, a, ok := strings.Cut(line, "listening on "); ok {
						addrCh <- strings.TrimSpace(a)
					}
				}
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case a := <-addrCh:
		return cmd, "http://" + a
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatalf("server never reported its listen address")
		return nil, ""
	}
}

// serveInProcess is startServer without the process: args go through main's
// own flag binding into a server.Config, and the server it builds is served
// from a loopback listener until the test ends. For tests that never kill
// the server.
func serveInProcess(t *testing.T, args ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("xsp-server", flag.ContinueOnError)
	var cfg server.Config
	bindFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New(%v): %v", args, err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// TestServerRestartLosesNothing is the end-to-end durability proof: two
// retrying collectors stream a reordered workload at a durable server,
// the server is SIGKILLed mid-burst, a new process restarts on the same
// data dir and port, the collectors drain their backlog against it, and
// the correlated trace must hold every published span exactly once —
// nothing an acked batch carried is lost, nothing a retried batch
// carried is published twice.
func TestServerRestartLosesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	tmp := t.TempDir()
	bin := buildServer(t, tmp)
	dataDir := filepath.Join(tmp, "data")

	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace:           workload.SyntheticSpec{Spans: 2_000, Streams: 2, Seed: 21},
		BatchSize:       40,
		ReorderSkew:     12,
		StragglerWindow: 32,
		Seed:            22,
	})
	total := 0
	wantIDs := make(map[uint64]bool)
	for _, b := range batches {
		for _, s := range b {
			total++
			wantIDs[s.ID] = true
		}
	}

	serverArgs := func(addr string) []string {
		return []string{
			"-addr", addr,
			"-data-dir", dataDir,
			"-reorder-window", "64ns", // vclock units: synthetic spans span a few thousand
			"-retain", "512ns",
		}
	}
	proc, baseURL := startServer(t, bin, serverArgs("127.0.0.1:0")...)
	addr := strings.TrimPrefix(baseURL, "http://")

	newCollector := func() *trace.HTTPCollector {
		c := trace.NewHTTPCollector(baseURL)
		c.SetRetryPolicy(trace.RetryPolicy{BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
		return c
	}
	collectors := []*trace.HTTPCollector{newCollector(), newCollector()}
	publish := func(i int) { // batch i goes to collector i%2, like two tracer processes
		c := collectors[i%2]
		c.Publish(batches[i]...)
		_, _ = c.Flush() // errors accumulate as backlog; the drain loop settles them
	}

	third := len(batches) / 3
	for i := 0; i < third; i++ {
		publish(i)
	}

	// The kill races the middle burst's POSTs: batches land before,
	// during, and after the server dies.
	killed := make(chan error, 1)
	go func() {
		time.Sleep(5 * time.Millisecond)
		killed <- proc.Process.Kill()
	}()
	for i := third; i < 2*third; i++ {
		publish(i)
	}
	if err := <-killed; err != nil {
		t.Fatalf("kill server: %v", err)
	}
	_ = proc.Wait() // reap; also guarantees the port is free again

	// The rest of the stream arrives while the server is down.
	for i := 2 * third; i < len(batches); i++ {
		publish(i)
	}

	proc2, baseURL2 := startServer(t, bin, serverArgs(addr)...)
	defer func() {
		_ = proc2.Process.Kill()
		_ = proc2.Wait()
	}()
	if baseURL2 != baseURL {
		t.Fatalf("restarted server on %s, want %s", baseURL2, baseURL)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		backlog := 0
		for _, c := range collectors {
			if _, err := c.Flush(); err != nil && !errors.Is(err, trace.ErrBackoff) {
				t.Logf("flush: %v", err)
			}
			backlog += c.Backlog()
		}
		if backlog == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("collectors never drained: backlog %d", backlog)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, c := range collectors {
		if b, s := c.Dropped(); b != 0 {
			t.Fatalf("collector %d shed %d batch(es), %d span(s)", i, b, s)
		}
	}

	resp, err := http.Get(baseURL + "/api/correlated?flush=1")
	if err != nil {
		t.Fatalf("GET /api/correlated: %v", err)
	}
	got, err := trace.DecodeJSON(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode correlated trace: %v", err)
	}
	if len(got.Spans) != total {
		t.Errorf("correlated trace holds %d spans, published %d", len(got.Spans), total)
	}
	seen := make(map[uint64]bool, len(got.Spans))
	for _, s := range got.Spans {
		if seen[s.ID] {
			t.Fatalf("span %d published twice", s.ID)
		}
		seen[s.ID] = true
		if !wantIDs[s.ID] {
			t.Fatalf("span %d was never published", s.ID)
		}
	}
	for id := range wantIDs {
		if !seen[id] {
			t.Errorf("span %d lost across the restart", id)
		}
	}

	// The durability endpoint reflects a healthy store that actually
	// went through recovery: no latched error, no quarantined files, and
	// a dedup window covering the batches acked before the kill.
	resp, err = http.Get(baseURL + "/api/durability")
	if err != nil {
		t.Fatalf("GET /api/durability: %v", err)
	}
	type tenantDur struct {
		Dir      string `json:"dir"`
		Err      string `json:"err"`
		Recovery struct {
			Segments     int      `json:"segments"`
			BatchRecords int      `json:"batch_records"`
			DedupIDs     int      `json:"dedup_ids"`
			Quarantined  []string `json:"quarantined"`
		} `json:"recovery"`
	}
	var dur struct {
		Dir     string               `json:"dir"`
		Tenants map[string]tenantDur `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dur); err != nil {
		t.Fatalf("decode durability view: %v", err)
	}
	resp.Body.Close()
	if dur.Dir != dataDir {
		t.Errorf("durability dir %q, want %q", dur.Dir, dataDir)
	}
	def, ok := dur.Tenants["default"]
	if !ok {
		t.Fatalf("durability view has no default tenant entry: %v", dur.Tenants)
	}
	if def.Err != "" {
		t.Errorf("durability error latched: %s", def.Err)
	}
	if def.Dir != dataDir {
		t.Errorf("default tenant durability dir %q, want the data-dir root %q (pre-tenant layout)", def.Dir, dataDir)
	}
	if len(def.Recovery.Quarantined) != 0 {
		t.Errorf("recovery quarantined %v", def.Recovery.Quarantined)
	}
	if def.Recovery.BatchRecords == 0 && def.Recovery.Segments == 0 {
		t.Errorf("recovery found nothing durable; the pre-kill acks were empty promises")
	}
	if def.Recovery.DedupIDs == 0 {
		t.Errorf("recovery restored no dedup ids; retried batches would double-publish")
	}
}

// decodeAnalysis GETs one /api/analysis view and decodes the combined
// snapshot.
func decodeAnalysis(t *testing.T, url string) analysis.OnlineSnapshot {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %s", url, resp.Status)
	}
	var snap analysis.OnlineSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return snap
}

// TestServerLiveAnalysis proves the live endpoints end to end: two
// tenants stream workloads at a -live-analysis server, and each tenant's
// /api/analysis views must agree with a fresh engine fed its own published
// trace, and with the batch layer table and kernel latency — while the
// other tenant's, and an unknown tenant's, stay untouched. The SSE form must deliver converging snapshots from a
// plain GET with Accept: text/event-stream semantics (?watch=1 here).
func TestServerLiveAnalysis(t *testing.T) {
	baseURL := serveInProcess(t, "-addr", "127.0.0.1:0", "-live-analysis", "-reorder-window", "64ns")

	layerTypes := []string{"Conv2D", "Relu", "MatMul"}
	publish := func(tenant string, seed int64) *trace.Trace {
		tr := workload.SyntheticTrace(workload.SyntheticSpec{
			Spans: 3_000, Streams: 2, LayerTypes: layerTypes,
			KernelMetrics: true, MemcpysPerLayer: 2, Seed: seed,
		})
		c := trace.NewHTTPCollector(baseURL)
		if tenant != "" {
			if err := c.SetTenant(tenant); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < len(tr.Spans); i += 256 {
			end := min(i+256, len(tr.Spans))
			c.Publish(tr.Spans[i:end]...)
		}
		if _, err := c.Flush(); err != nil {
			t.Fatalf("publish tenant %q: %v", tenant, err)
		}
		return tr
	}
	defTrace := publish("", 51)
	acmeTrace := publish("acme", 52)

	check := func(tenant string, tr *trace.Trace) {
		t.Helper()
		url := baseURL + "/api/analysis?flush=1"
		if tenant != "" {
			url += "&tenant=" + tenant
		}
		snap := decodeAnalysis(t, url)
		// The server's engine saw the spans in the correlator's delivery
		// order; a fresh engine fed the published trace must count the same.
		fresh := analysis.NewOnline(analysis.OnlineOptions{Spec: gpu.TeslaV100})
		fresh.ObserveSpans(tr.Spans)
		want := fresh.Snapshot()
		if snap.Spans != int64(len(tr.Spans)) || snap.Spans != want.Spans {
			t.Errorf("tenant %q: %d spans analyzed, %d published", tenant, snap.Spans, len(tr.Spans))
		}
		if g, w := snap.LaunchGaps, want.LaunchGaps; g.Kernels != w.Kernels || g.Waited != w.Waited {
			t.Errorf("tenant %q: %d gap kernels (%d waited), fresh engine %d (%d)", tenant, g.Kernels, g.Waited, w.Kernels, w.Waited)
		}
		dirs := map[string]int{}
		for _, r := range want.Memcpy.Rows {
			dirs[r.Direction] = r.Count
		}
		if len(snap.Memcpy.Rows) != len(dirs) {
			t.Errorf("tenant %q: %d memcpy dirs, fresh engine %d", tenant, len(snap.Memcpy.Rows), len(dirs))
		}
		for _, r := range snap.Memcpy.Rows {
			if r.Count != dirs[r.Direction] {
				t.Errorf("tenant %q: %d %s copies, fresh engine %d", tenant, r.Count, r.Direction, dirs[r.Direction])
			}
		}
		if g, w := snap.Roofline, want.Roofline; g.Kernels != w.Kernels || g.MemoryBound != w.MemoryBound || len(g.Buckets) != len(w.Buckets) {
			t.Errorf("tenant %q: %d roofline kernels (%d memory-bound, %d buckets), fresh engine %d (%d, %d)",
				tenant, g.Kernels, g.MemoryBound, len(g.Buckets), w.Kernels, w.MemoryBound, len(w.Buckets))
		}
		rs, err := analysis.NewRunSet(gpu.TeslaV100, tr)
		if err != nil {
			t.Fatal(err)
		}
		rs.Trim = 0
		if want := len(rs.A2LayerInfo()); len(snap.Layers.Layers) != want {
			t.Errorf("tenant %q: %d layers, batch %d", tenant, len(snap.Layers.Layers), want)
		}
		if total := rs.TotalKernelLatencyMS(); math.Abs(snap.Roofline.TotalLatencyMS-total) > 1e-6*(1+total) {
			t.Errorf("tenant %q: kernel latency %v, batch %v", tenant, snap.Roofline.TotalLatencyMS, total)
		}
	}
	check("", defTrace)
	check("acme", acmeTrace)

	// A tenant that never published gets the empty answer, not a new
	// materialized stream.
	if snap := decodeAnalysis(t, baseURL+"/api/analysis?tenant=ghost"); snap.Spans != 0 {
		t.Errorf("unknown tenant analyzed %d spans", snap.Spans)
	}
	resp, err := http.Get(baseURL + "/api/analysis/bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown view: status %s, want 404", resp.Status)
	}

	// SSE: events arrive on an interval and carry the same snapshot JSON.
	resp, err = http.Get(baseURL + "/api/analysis?watch=1&interval=20ms")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	events := 0
	for sc.Scan() && events < 2 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var snap analysis.OnlineSnapshot
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
			t.Fatalf("SSE event %d: %v", events, err)
		}
		if snap.Spans != int64(len(defTrace.Spans)) {
			t.Errorf("SSE event %d: %d spans, want %d", events, snap.Spans, len(defTrace.Spans))
		}
		events++
	}
	resp.Body.Close()
	if events != 2 {
		t.Fatalf("read %d SSE events, want 2 (scan err %v)", events, sc.Err())
	}

	// Reset clears exactly the addressed tenant's analyses.
	req, _ := http.NewRequest(http.MethodPost, baseURL+"/api/reset?tenant=acme", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap := decodeAnalysis(t, baseURL+"/api/analysis?tenant=acme"); snap.Spans != 0 {
		t.Errorf("acme still reports %d spans after reset", snap.Spans)
	}
	if snap := decodeAnalysis(t, baseURL+"/api/analysis"); snap.Spans != int64(len(defTrace.Spans)) {
		t.Errorf("default tenant lost spans to acme's reset: %d", snap.Spans)
	}
}

// TestServerLiveAnalysisSoak drives a -live-analysis server built with
// the race detector: concurrent publishers per tenant, SSE consumers
// reading live snapshots mid-ingest, snapshot pollers, and periodic
// checkpoint folds, all at once. A data race anywhere on the observer
// path (correlator delivery, engine state, snapshot serving) crashes the
// race-built server and fails the final verification. XSP_SOAK_SPANS
// scales the stream (default 200k spans across tenants).
func TestServerLiveAnalysisSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: skipped in -short")
	}
	total := 200_000
	if v := os.Getenv("XSP_SOAK_SPANS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad XSP_SOAK_SPANS %q", v)
		}
		total = n
	}

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "xsp-server-race")
	if out, err := exec.Command("go", "build", "-race", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	proc, baseURL := startServer(t, bin, "-addr", "127.0.0.1:0", "-live-analysis",
		"-reorder-window", "64ns", "-retain", "1024ns")
	defer func() {
		_ = proc.Process.Kill()
		_ = proc.Wait()
	}()

	tenants := []string{"", "soak-b"}
	const publishersPerTenant = 2
	perPublisher := total / (len(tenants) * publishersPerTenant)

	ctx, cancel := context.WithCancel(context.Background())
	var consumers sync.WaitGroup
	for _, tenant := range tenants {
		url := baseURL + "/api/analysis?watch=1&interval=10ms"
		poll := baseURL + "/api/analysis/launchgaps"
		if tenant != "" {
			url += "&tenant=" + tenant
			poll += "?tenant=" + tenant
		}
		// SSE consumer: holds one streaming response open for the whole
		// soak, decoding every event it receives.
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return // canceled before connect
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			var last int64
			for sc.Scan() {
				line := sc.Text()
				if !strings.HasPrefix(line, "data: ") {
					continue
				}
				var snap analysis.OnlineSnapshot
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
					if ctx.Err() != nil {
						return // the cancel cut the body mid-line: Scan yields the fragment
					}
					t.Errorf("SSE decode: %v", err)
					return
				}
				if snap.Spans < last {
					t.Errorf("SSE snapshot went backwards: %d after %d", snap.Spans, last)
					return
				}
				last = snap.Spans
			}
		}()
		// Snapshot poller + periodic checkpoint folds under live delivery.
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for i := 0; ctx.Err() == nil; i++ {
				resp, err := http.Get(poll)
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if i%10 == 9 {
					req, _ := http.NewRequest(http.MethodPost, baseURL+"/api/checkpoint", nil)
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
				}
				select {
				case <-ctx.Done():
				case <-time.After(5 * time.Millisecond):
				}
			}
		}()
	}

	var publishers sync.WaitGroup
	published := make([]int, len(tenants))
	for ti, tenant := range tenants {
		for p := 0; p < publishersPerTenant; p++ {
			tr := workload.SyntheticTrace(workload.SyntheticSpec{
				Spans: perPublisher, Streams: 2,
				LayerTypes:    []string{"Conv2D", "Relu"},
				KernelMetrics: true, MemcpysPerLayer: 1,
				Seed: int64(100 + ti*10 + p),
			})
			published[ti] += len(tr.Spans)
			publishers.Add(1)
			go func(tenant string, spans []*trace.Span) {
				defer publishers.Done()
				c := trace.NewHTTPCollector(baseURL)
				c.SetRetryPolicy(trace.RetryPolicy{BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
				if tenant != "" {
					if err := c.SetTenant(tenant); err != nil {
						t.Error(err)
						return
					}
				}
				for i := 0; i < len(spans); i += 200 {
					end := min(i+200, len(spans))
					c.Publish(spans[i:end]...)
					_, _ = c.Flush()
				}
				deadline := time.Now().Add(60 * time.Second)
				for c.Backlog() > 0 {
					if time.Now().After(deadline) {
						t.Errorf("publisher backlog never drained: %d", c.Backlog())
						return
					}
					_, _ = c.Flush()
					time.Sleep(2 * time.Millisecond)
				}
				if b, s := c.Dropped(); b != 0 {
					t.Errorf("publisher shed %d batch(es), %d span(s)", b, s)
				}
			}(tenant, tr.Spans)
		}
	}
	publishers.Wait()
	cancel()
	consumers.Wait()

	// The race-built server survived the whole soak; every tenant's engine
	// must have seen exactly the spans its publishers landed.
	for ti, tenant := range tenants {
		url := baseURL + "/api/analysis?flush=1"
		if tenant != "" {
			url += "&tenant=" + tenant
		}
		snap := decodeAnalysis(t, url)
		if snap.Spans != int64(published[ti]) {
			t.Errorf("tenant %q analyzed %d spans, published %d", tenant, snap.Spans, published[ti])
		}
	}
}

// stopServer SIGTERMs the server and holds it to the clean exit: status 0,
// inside the shutdown deadline (and some slack for a loaded machine).
func stopServer(t *testing.T, proc *exec.Cmd) {
	t.Helper()
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM server: %v", err)
	}
	const limit = shutdownDeadline + 5*time.Second
	exited := make(chan error, 1)
	go func() { exited <- proc.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("SIGTERMed server did not exit 0: %v", err)
		}
	case <-time.After(limit):
		_ = proc.Process.Kill()
		t.Fatalf("SIGTERMed server still running %v after the signal", limit)
	}
}

// fedStream is a pipelined 3-stream workload in arrival order — bounded
// reordering, and one window of spans withheld to the last batch, which by
// then arrives behind the release point — with one non-launch span in 41
// handed to the model span (id 1) by its tracer: the parents the raw view
// must give back as sent, while every other ParentID reads zero.
func fedStream(seed int64, spans int) [][]*trace.Span {
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace:           workload.SyntheticSpec{Spans: spans, Streams: 3, Seed: seed},
		BatchSize:       128,
		ReorderSkew:     12,
		StragglerWindow: 32,
		Seed:            seed + 1,
	})
	for _, b := range batches {
		for _, s := range b {
			if s.ID%41 == 0 && s.Kind != trace.KindLaunch {
				s.ParentID = 1
			}
		}
	}
	return batches
}

// postBatch POSTs one binary batch under a batch id and insists on the 202:
// from here on the batch is acknowledged, and every view owes it.
func postBatch(t *testing.T, baseURL, tenant string, id uint64, spans []*trace.Span) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, baseURL+"/api/spans", bytes.NewReader(trace.AppendBinaryFrameTenant(nil, tenant, spans)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", trace.ContentTypeBinary)
	req.Header.Set("X-Batch-Id", strconv.FormatUint(id, 16))
	if tenant != "" {
		req.Header.Set(trace.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST batch %x: %v", id, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST batch %x (tenant %q): %s", id, tenant, resp.Status)
	}
}

// getBody GETs one tenant's view of an endpoint as JSON.
func getBody(t *testing.T, url, tenant string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(trace.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s (tenant %q): %s, %v", url, tenant, resp.Status, err)
	}
	return body
}

// checkRawView holds /api/trace — no flush parameter — to the bytes a
// trace.Memory fed the acknowledged batches would serve: every span, in
// canonical order, each ParentID the one its tracer sent. The binary
// encoding must decode to the same spans.
func checkRawView(t *testing.T, when, baseURL, tenant string, acked [][]*trace.Span) {
	t.Helper()
	mem := trace.NewMemory()
	for _, b := range acked {
		for _, s := range b {
			mem.Publish(s.Clone())
		}
	}
	want := mem.Trace()
	want.Tenant = tenant
	var wantBody bytes.Buffer
	if err := want.EncodeJSON(&wantBody); err != nil {
		t.Fatal(err)
	}
	if got := getBody(t, baseURL+"/api/trace", tenant); !bytes.Equal(got, wantBody.Bytes()) {
		gotTrace, err := trace.DecodeJSON(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("%s: tenant %q /api/trace: %v", when, tenant, err)
		}
		parented, wantParented := 0, 0
		for _, s := range gotTrace.Spans {
			if s.ParentID != 0 {
				parented++
			}
		}
		for _, s := range want.Spans {
			if s.ParentID != 0 {
				wantParented++
			}
		}
		t.Fatalf("%s: tenant %q /api/trace serves %d spans, %d with a parent; acknowledged %d, %d sent with one",
			when, tenant, len(gotTrace.Spans), parented, len(want.Spans), wantParented)
	}
	bin, err := trace.FetchTraceTenant(nil, baseURL, tenant)
	if err != nil {
		t.Fatalf("%s: tenant %q binary /api/trace: %v", when, tenant, err)
	}
	if len(bin.Spans) != len(want.Spans) {
		t.Fatalf("%s: tenant %q binary /api/trace holds %d spans, want %d", when, tenant, len(bin.Spans), len(want.Spans))
	}
	for i, s := range bin.Spans {
		if w := want.Spans[i]; s.ID != w.ID || s.ParentID != w.ParentID || s.Name != w.Name {
			t.Fatalf("%s: tenant %q binary /api/trace position %d: span %d under %d, want span %d under %d", when, tenant, i, s.ID, s.ParentID, w.ID, w.ParentID)
		}
	}
}

// checkCorrelatedView holds /api/correlated?flush=1 to core.Correlate of the
// acknowledged batches.
func checkCorrelatedView(t *testing.T, when, baseURL, tenant string, acked [][]*trace.Span) {
	t.Helper()
	want := &trace.Trace{}
	for _, b := range acked {
		for _, s := range b {
			want.Spans = append(want.Spans, s.Clone())
		}
	}
	want.SortByBegin()
	core.Correlate(want)
	got, err := trace.DecodeJSON(bytes.NewReader(getBody(t, baseURL+"/api/correlated?flush=1", tenant)))
	if err != nil {
		t.Fatalf("%s: tenant %q /api/correlated: %v", when, tenant, err)
	}
	if len(got.Spans) != len(want.Spans) {
		t.Fatalf("%s: tenant %q /api/correlated holds %d spans, acknowledged %d", when, tenant, len(got.Spans), len(want.Spans))
	}
	for i, s := range got.Spans {
		if w := want.Spans[i]; s.ID != w.ID || s.ParentID != w.ParentID {
			t.Fatalf("%s: tenant %q /api/correlated position %d: span %d under %d, batch correlation has span %d under %d",
				when, tenant, i, s.ID, s.ParentID, w.ID, w.ParentID)
		}
	}
}

// checkAnalysisSpans holds the tenant's live analyses to one observation
// per acknowledged span.
func checkAnalysisSpans(t *testing.T, when, baseURL, tenant string, acked [][]*trace.Span) {
	t.Helper()
	want := 0
	for _, b := range acked {
		want += len(b)
	}
	req, err := http.NewRequest(http.MethodGet, baseURL+"/api/analysis?flush=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(trace.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: tenant %q GET /api/analysis: %v", when, tenant, err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Analysis-Spans"); got != strconv.Itoa(want) {
		t.Fatalf("%s: tenant %q analyses observed %s spans, %d were acknowledged", when, tenant, got, want)
	}
}

// shedRequests returns the server's shed-request count from its stats
// document: nonzero once admission has pushed a batch back.
func shedRequests(t *testing.T, baseURL string) int64 {
	var doc struct {
		Admission trace.OverloadStats `json:"admission"`
	}
	if err := json.Unmarshal(getBody(t, baseURL+"/api/overload", ""), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Admission.ShedRequests
}

// ship publishes batches to one tenant through eight concurrent retrying
// HTTPCollectors — batch i by collector i%8 — and returns once every
// collector's backlog has drained, nothing dropped.
func ship(t *testing.T, baseURL, tenant string, batches [][]*trace.Span) {
	t.Helper()
	const collectors = 8
	var wg sync.WaitGroup
	for c := 0; c < collectors; c++ {
		col := trace.NewHTTPCollector(baseURL)
		col.SetRetryPolicy(trace.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond})
		if err := col.SetTenant(tenant); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(batches); i += collectors {
				col.Publish(batches[i]...)
				_, _ = col.Flush()
			}
			for deadline := time.Now().Add(30 * time.Second); col.Backlog() > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Errorf("tenant %q collector %d: backlog %d never drained", tenant, c, col.Backlog())
					return
				}
				_, _ = col.Flush()
			}
			if b, s := col.Dropped(); b != 0 {
				t.Errorf("tenant %q collector %d dropped %d batch(es), %d span(s)", tenant, c, b, s)
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// TestServerTraceIsTheFedStream: /api/trace is served from the correlator's
// history, and in every mode it must be the stream as it was fed — two
// tenants, stragglers, tracer-parented spans — the moment the last 202 has
// returned, with nothing flushed by the reader; /api/correlated?flush=1 is
// its batch correlation and the live analyses observed each span once. The
// overload arm drives the tenants past their admission budget through
// eight concurrent retrying collectors: every batch admission pushes back
// is retried, and every one acknowledged is in every view, exactly once.
func TestServerTraceIsTheFedStream(t *testing.T) {
	tmp := t.TempDir()
	window := []string{"-reorder-window", "64ns", "-retain", "512ns"}
	modes := []struct {
		name     string
		args     []string
		overload bool // published through retrying collectors, past the budget
	}{
		{"plain", nil, false}, // the defaults, live analyses aside: nothing ever folds
		{"block", window, false},
		{"durable", append([]string{"-data-dir", filepath.Join(tmp, "data")}, window...), false},
		{"overload", append([]string{"-max-inflight-spans", "4096", "-retry-after", "5ms"}, window...), true},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			baseURL := serveInProcess(t, append([]string{"-addr", "127.0.0.1:0", "-live-analysis"}, mode.args...)...)

			tenants := []string{"", "acme"}
			streams := [][][]*trace.Span{fedStream(31, 6_000), fedStream(33, 4_000)}
			if mode.overload {
				for k, tenant := range tenants {
					ship(t, baseURL, tenant, streams[k])
				}
				// Overdrive the default tenant until admission has pushed back:
				// bursts of eight batches, two budgets' worth each.
				nextID, at := uint64(1<<32), streams[0][len(streams[0])-1][0].End+10_000
				for burst := 0; shedRequests(t, baseURL) == 0; burst++ {
					if burst == 50 {
						t.Fatal("fifty bursts of two budgets each were never pushed back")
					}
					batches := make([][]*trace.Span, 8)
					for b := range batches {
						batches[b] = make([]*trace.Span, 1_024)
						for i := range batches[b] {
							nextID, at = nextID+1, at+2
							batches[b][i] = &trace.Span{ID: nextID, Level: trace.LevelKernel, Name: "burst", Begin: at, End: at + 1}
						}
					}
					streams[0] = append(streams[0], batches...)
					ship(t, baseURL, "", batches)
				}
			} else {
				for i := 0; i < len(streams[0]) || i < len(streams[1]); i++ {
					for k, tenant := range tenants {
						if i < len(streams[k]) {
							postBatch(t, baseURL, tenant, uint64(i+1), streams[k][i])
						}
					}
				}
			}
			for k, tenant := range tenants {
				checkRawView(t, "after the last 202", baseURL, tenant, streams[k])
				checkCorrelatedView(t, "after the last 202", baseURL, tenant, streams[k])
				// Settling every link changed nothing in the raw view.
				checkRawView(t, "after the flush", baseURL, tenant, streams[k])
				checkAnalysisSpans(t, "after the flush", baseURL, tenant, streams[k])
			}

			req, _ := http.NewRequest(http.MethodPost, baseURL+"/api/reset?tenant=acme", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			checkRawView(t, "after its reset", baseURL, "acme", nil)
			checkAnalysisSpans(t, "after its reset", baseURL, "acme", nil)
			checkRawView(t, "after the neighbour's reset", baseURL, "", streams[0])
		})
	}
}

// TestServerRawViewSurvivesRestartCycles: thermal cycling for the raw view.
// A durable server is stopped and restarted four times with publishing in
// between — SIGTERM and SIGKILL alternately, so a clean shutdown's directory
// is recovered after a crash's and the other way round; a SIGTERMed server
// must exit 0 inside the shutdown deadline — and after every cycle, not only
// the last, /api/trace is everything acknowledged with the parents the
// tracers sent (a boot that republished the correlator's snapshot served the
// resolver's parents here), /api/correlated?flush=1 is its batch
// correlation, and the store is clean.
func TestServerRawViewSurvivesRestartCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	tmp := t.TempDir()
	bin := buildServer(t, tmp)
	t.Run("default", func(t *testing.T) {
		dataDir := filepath.Join(tmp, "data")
		serverArgs := func(addr string) []string {
			return []string{"-addr", addr, "-data-dir", dataDir, "-reorder-window", "64ns", "-retain", "512ns"}
		}
		proc, baseURL := startServer(t, bin, serverArgs("127.0.0.1:0")...)
		defer func() {
			_ = proc.Process.Kill()
			_ = proc.Wait()
		}()
		addr := strings.TrimPrefix(baseURL, "http://")

		tenants := []string{"", "acme"}
		streams := [][][]*trace.Span{fedStream(41, 6_000), fedStream(43, 4_000)}
		acked := make([][][]*trace.Span, len(tenants))
		const cycles = 4
		for cycle := 0; cycle <= cycles; cycle++ {
			// One more quarter of each stream; the last holds the withheld
			// window, which reaches behind four restarts' worth of folds.
			for k, tenant := range tenants {
				n := len(streams[k])
				for i := cycle * n / (cycles + 1); i < (cycle+1)*n/(cycles+1); i++ {
					postBatch(t, baseURL, tenant, uint64(i+1), streams[k][i])
					acked[k] = append(acked[k], streams[k][i])
				}
			}
			when := "after the last quarter"
			if cycle < cycles {
				if cycle%2 == 0 {
					stopServer(t, proc)
					when = "after SIGTERM and restart " + strconv.Itoa(cycle+1)
				} else {
					if err := proc.Process.Kill(); err != nil {
						t.Fatalf("kill server: %v", err)
					}
					_ = proc.Wait()
					when = "after SIGKILL and restart " + strconv.Itoa(cycle+1)
				}
				proc, baseURL = startServer(t, bin, serverArgs(addr)...)
			}
			for k, tenant := range tenants {
				checkRawView(t, when, baseURL, tenant, acked[k])
				checkCorrelatedView(t, when, baseURL, tenant, acked[k])
				checkRawView(t, when+" and a flush", baseURL, tenant, acked[k])
			}
			var dur struct {
				Tenants map[string]struct {
					Err      string `json:"err"`
					Recovery struct {
						Quarantined []string `json:"quarantined"`
					} `json:"recovery"`
				} `json:"tenants"`
			}
			if err := json.Unmarshal(getBody(t, baseURL+"/api/durability", ""), &dur); err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"default", "acme"} {
				if d, ok := dur.Tenants[key]; !ok || d.Err != "" || len(d.Recovery.Quarantined) != 0 {
					t.Fatalf("%s: tenant %s durability: present %v, err %q, quarantined %v", when, key, ok, d.Err, d.Recovery.Quarantined)
				}
			}
		}
	})
}
