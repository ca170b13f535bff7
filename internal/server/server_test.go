package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xsp/internal/core"
	"xsp/internal/gpu"
	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

// testConfig is cmd/xsp-server's flag defaults with the window and retain
// bound sized to the synthetic workloads' clock (a few thousand ticks), so
// streams fold, straggle and reopen while a test runs.
func testConfig(dataDir string) Config {
	return Config{
		DataDir: dataDir, GPU: gpu.TeslaV100.Name,
		ReorderWindow: 64, Retain: 512, RetryAfter: time.Second,
	}
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// arrivals is a pipelined stream in arrival order: bounded reordering, and
// one window of spans withheld to the last batch, behind the release point.
func arrivals(seed int64, spans int) [][]*trace.Span {
	return workload.StreamingArrivals(workload.StreamingSpec{
		Trace:     workload.SyntheticSpec{Spans: spans, Streams: 3, Seed: seed},
		BatchSize: 128, ReorderSkew: 12, StragglerWindow: 32, Seed: seed + 1,
	})
}

// do serves one request straight through the handler.
func do(s http.Handler, method, target, tenant string, hdr map[string]string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if tenant != "" {
		req.Header.Set(trace.TenantHeader, tenant)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// post ships one binary batch under a batch id.
func post(s http.Handler, tenant string, id uint64, spans []*trace.Span) *httptest.ResponseRecorder {
	return do(s, http.MethodPost, "/api/spans", tenant, map[string]string{
		"Content-Type": trace.ContentTypeBinary,
		"X-Batch-Id":   strconv.FormatUint(id, 16),
	}, trace.AppendBinaryFrameTenant(nil, tenant, spans))
}

func get(t *testing.T, s http.Handler, target, tenant string) []byte {
	t.Helper()
	rec := do(s, http.MethodGet, target, tenant, nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s (tenant %q): %d %s", target, tenant, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// statsView is the part of the stats document (GET /api/overload and
// /api/durability) the tests read.
type statsView struct {
	Admission trace.OverloadStats `json:"admission"`
	Tenants   map[string]struct {
		Admission trace.OverloadStats `json:"admission"`
		Stream    *core.StreamStats   `json:"stream"`
		Dir       string              `json:"dir"`
		Err       string              `json:"err"`
		Recovery  *struct {
			DedupIDs          int      `json:"dedup_ids"`
			Quarantined       []string `json:"quarantined"`
			WALTruncatedBytes int64    `json:"wal_truncated_bytes"`
		} `json:"recovery"`
	} `json:"tenants"`
}

func stats(t *testing.T, s http.Handler) statsView {
	t.Helper()
	var v statsView
	if err := json.Unmarshal(get(t, s, "/api/durability", ""), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// noStatHeaders serves through h and fails t on any reply that sets a
// header that used to carry the server's counters on data-path replies —
// the correlator's X-Stream-* on /api/correlated, X-Shed-Requests,
// X-Shed-Spans and X-Tap-Queue-Depth on push-backs — which the stats
// document publishes instead.
func noStatHeaders(t *testing.T, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		for name := range w.Header() {
			if strings.HasPrefix(name, "X-Stream-") || name == "X-Shed-Requests" || name == "X-Shed-Spans" || name == "X-Tap-Queue-Depth" {
				t.Errorf("%s %s answered with the stat header %s", r.Method, r.URL, name)
			}
		}
	})
}

// Lifecycle (a): a durable server that was closed comes back byte for byte.
// Both views of both tenants are the same before Close and after New over
// the same directory, an acknowledged batch id is still a duplicate, and
// recovery found a clean directory — nothing quarantined, no torn WAL tail:
// Close leaves what a crash would, minus the tear.
func TestDurableCloseReopenIsByteIdentical(t *testing.T) {
	cfg := testConfig(t.TempDir())
	s := newServer(t, cfg)
	tenants := []string{"", "acme"}
	streams := [][][]*trace.Span{arrivals(61, 6_000), arrivals(63, 4_000)}
	for k, tenant := range tenants {
		for i, b := range streams[k] {
			if rec := post(s, tenant, uint64(i+1), b); rec.Code != http.StatusAccepted {
				t.Fatalf("tenant %q batch %d: %d %s", tenant, i+1, rec.Code, rec.Body)
			}
		}
	}
	views := []string{"/api/trace", "/api/correlated?flush=1"}
	before := map[string][]byte{}
	for _, tenant := range tenants {
		for _, v := range views {
			before[tenant+v] = get(t, s, v, tenant)
		}
	}
	s.Close()
	s.Close() // idempotent
	if rec := post(s, "", 1<<40, streams[0][0]); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST to a closed server: %d, want 503", rec.Code)
	}

	s = newServer(t, cfg)
	for k, tenant := range tenants {
		for _, v := range views {
			if after := get(t, s, v, tenant); !bytes.Equal(after, before[tenant+v]) {
				t.Errorf("tenant %q %s: %d bytes after reopen, %d before Close, and they differ", tenant, v, len(after), len(before[tenant+v]))
			}
		}
		rec := post(s, tenant, 1, streams[k][0])
		if rec.Code != http.StatusAccepted || rec.Header().Get("X-Duplicate-Batch") == "" {
			t.Errorf("tenant %q: re-post of acknowledged batch 1 after reopen: %d, X-Duplicate-Batch %q", tenant, rec.Code, rec.Header().Get("X-Duplicate-Batch"))
		}
	}
	dur := stats(t, s)
	for _, key := range []string{"default", "acme"} {
		d, ok := dur.Tenants[key]
		if !ok || d.Err != "" || d.Recovery == nil {
			t.Fatalf("tenant %s durability after reopen: present %v, err %q, recovery %v", key, ok, d.Err, d.Recovery)
		}
		if len(d.Recovery.Quarantined) != 0 || d.Recovery.WALTruncatedBytes != 0 || d.Recovery.DedupIDs == 0 {
			t.Errorf("tenant %s recovered from a closed directory with quarantined %v, %d torn WAL bytes, %d dedup ids",
				key, d.Recovery.Quarantined, d.Recovery.WALTruncatedBytes, d.Recovery.DedupIDs)
		}
	}
}

// A batch may carry one span id twice, and two batches may each carry the
// same span: the live stream keeps every copy, and recovery's replay keeps
// as many, so both views are the same bytes after Close and New over the
// same directory.
func TestDurableReopenKeepsRepeatedSpanIDs(t *testing.T) {
	cfg := testConfig(t.TempDir())
	s := newServer(t, cfg)
	batches := [][]*trace.Span{
		{
			{ID: 7, Level: trace.LevelLayer, Name: "conv", Begin: 10, End: 40},
			{ID: 7, Level: trace.LevelLayer, Name: "conv", Begin: 50, End: 80},
		},
		{{ID: 9, Level: trace.LevelKernel, Name: "gemm", Begin: 20, End: 30}},
		{{ID: 9, Level: trace.LevelKernel, Name: "gemm", Begin: 20, End: 30}},
	}
	for i, b := range batches {
		if rec := post(s, "", uint64(i+1), b); rec.Code != http.StatusAccepted {
			t.Fatalf("batch %d: %d %s", i+1, rec.Code, rec.Body)
		}
	}
	if tr, err := trace.DecodeJSON(bytes.NewReader(get(t, s, "/api/trace", ""))); err != nil || len(tr.Spans) != 4 {
		t.Fatalf("live trace: %v, %d spans, want all 4 copies", err, len(tr.Spans))
	}
	views := []string{"/api/trace", "/api/correlated?flush=1"}
	before := map[string][]byte{}
	for _, v := range views {
		before[v] = get(t, s, v, "")
	}
	s.Close()
	s = newServer(t, cfg)
	for _, v := range views {
		if after := get(t, s, v, ""); !bytes.Equal(after, before[v]) {
			t.Errorf("%s after reopen:\n%s\nbefore Close:\n%s", v, after, before[v])
		}
	}
}

// Lifecycle (b): Close on a RAM server drains what its tap still holds into
// the correlator, and the tap's worker goroutine is gone when it returns.
func TestCloseDrainsTheTap(t *testing.T) {
	cfg := testConfig("")
	s := newServer(t, cfg)
	batches := arrivals(71, 60_000)
	total := 0
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ { // four publishers against one tap worker: a queue builds
		for i := p; i < len(batches); i += 4 {
			total += len(batches[i])
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(batches); i += 4 {
				if rec := post(s, "", uint64(i+1), batches[i]); rec.Code != http.StatusAccepted {
					t.Errorf("batch %d: %d %s", i+1, rec.Code, rec.Body)
				}
			}
		}(p)
	}
	wg.Wait()
	tn, _ := s.tenants.Lookup("")
	t.Logf("tap depth at Close: %d spans (high-water %d)", tn.tap.Depth(), tn.tap.Stats().MaxDepth)
	s.Close()

	st := tn.tap.Stats()
	if st.Enqueued != int64(total) || st.Forwarded != st.Enqueued || st.Depth != 0 {
		t.Errorf("after Close the tap has enqueued %d, forwarded %d, holds %d; %d spans were acknowledged", st.Enqueued, st.Forwarded, st.Depth, total)
	}
	if fed := tn.sc.Stats().Fed; fed != total {
		t.Errorf("the correlator was fed %d spans, %d were acknowledged", fed, total)
	}
	// Close waits for the worker's wg.Done, which runs a few instructions
	// before its goroutine exits, so the profile may still catch it on the
	// way out: poll until it is gone, and fail if it never leaves.
	var stacks bytes.Buffer
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		stacks.Reset()
		if err := pprof.Lookup("goroutine").WriteTo(&stacks, 1); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stacks.String(), "(*AsyncTap).run") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a tap worker is still running 2s after Close:\n%s", stacks.String())
		}
	}
}

// Lifecycle (c): Close racing publishers. Whatever got its 202 is in the
// reopened server, and nothing else is: a request is either finished before
// the tenants close or refused.
func TestCloseRacingPostsKeepsEveryAck(t *testing.T) {
	cfg := testConfig(t.TempDir())
	s := newServer(t, cfg)
	batches := arrivals(81, 40_000)
	var (
		wg       sync.WaitGroup
		acked    = make([]atomic.Bool, len(batches))
		answered atomic.Int64
	)
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(batches); i += 4 {
				rec := post(s, "", uint64(i+1), batches[i])
				acked[i].Store(rec.Code == http.StatusAccepted)
				answered.Add(1)
			}
		}(p)
	}
	for answered.Load() < int64(len(batches)/3) { // Close lands mid-stream
		time.Sleep(100 * time.Microsecond)
	}
	s.Close()
	wg.Wait()

	want := map[uint64]bool{}
	refused := 0
	for i, b := range batches {
		if !acked[i].Load() {
			refused++
			continue
		}
		for _, sp := range b {
			want[sp.ID] = true
		}
	}
	if refused == 0 || refused == len(batches) {
		t.Fatalf("Close did not land mid-stream: %d of %d batches refused", refused, len(batches))
	}
	s = newServer(t, cfg)
	got, err := trace.DecodeJSON(bytes.NewReader(get(t, s, "/api/trace", "")))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range got.Spans {
		if !want[sp.ID] {
			t.Fatalf("span %d is in the reopened server; its batch was never acknowledged", sp.ID)
		}
		delete(want, sp.ID)
	}
	if len(want) != 0 {
		t.Fatalf("%d acknowledged spans are missing from the reopened server (%d batches refused of %d)", len(want), refused, len(batches))
	}
}

// Close ends an analysis watcher that is still connected instead of waiting
// for its client to leave.
func TestCloseEndsWatchers(t *testing.T) {
	s := newServer(t, testConfig(""))
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/analysis?watch=1&interval=5ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && !strings.HasPrefix(sc.Text(), "data: ") {
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close is still waiting for a connected watcher after 10s")
	}
	for sc.Scan() { // the stream ends; the client did not end it
	}
}

// postRetrying posts one batch until it is acknowledged, waiting out each
// push-back's Retry-After the way HTTPCollector does, and reports how often
// it was pushed back.
func postRetrying(t *testing.T, s http.Handler, id uint64, spans []*trace.Span) (shed int) {
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); shed++ {
		rec := post(s, "", id, spans)
		switch rec.Code {
		case http.StatusAccepted:
			return shed
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if rec.Code == http.StatusTooManyRequests {
				// Not stats: publishers call this off the test's goroutine.
				var v statsView
				doc := do(s, http.MethodGet, "/api/overload", "", nil, nil).Body.Bytes()
				if err := json.Unmarshal(doc, &v); err != nil || v.Admission.ShedRequests <= 0 {
					t.Errorf("batch %x: a 429, and the stats document %s counts no shed request (%v)", id, doc, err)
				}
			}
			secs, err := strconv.ParseFloat(rec.Header().Get("Retry-After"), 64)
			if err != nil {
				t.Errorf("batch %x: %d with Retry-After %q", id, rec.Code, rec.Header().Get("Retry-After"))
				return shed
			}
			time.Sleep(time.Duration(secs * float64(time.Second)))
		default:
			t.Errorf("batch %x: %d %s", id, rec.Code, rec.Body)
			return shed
		}
	}
	t.Errorf("batch %x was pushed back for 30s", id)
	return shed
}

// checkViews holds every view of the default tenant to the acknowledged
// batches: /api/trace to the stream as fed, /api/correlated?flush=1 to its
// batch correlation, and the live analyses to one observation per span.
func checkViews(t *testing.T, s http.Handler, when string, acked [][]*trace.Span) {
	t.Helper()
	mem, want := trace.NewMemory(), &trace.Trace{}
	for _, b := range acked {
		for _, sp := range b {
			mem.Publish(sp.Clone())
			want.Spans = append(want.Spans, sp.Clone())
		}
	}
	raw := mem.Trace()
	raw.Tenant = trace.DefaultTenant
	var rawBody bytes.Buffer
	if err := raw.EncodeJSON(&rawBody); err != nil {
		t.Fatal(err)
	}
	if got := get(t, s, "/api/trace", ""); !bytes.Equal(got, rawBody.Bytes()) {
		t.Fatalf("%s: /api/trace is %d bytes, the fed stream encodes to %d", when, len(got), rawBody.Len())
	}
	want.SortByBegin()
	core.Correlate(want)
	got, err := trace.DecodeJSON(bytes.NewReader(get(t, s, "/api/correlated?flush=1", "")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != len(want.Spans) {
		t.Fatalf("%s: /api/correlated holds %d spans, %d were acknowledged", when, len(got.Spans), len(want.Spans))
	}
	for i, sp := range got.Spans {
		if w := want.Spans[i]; sp.ID != w.ID || sp.ParentID != w.ParentID {
			t.Fatalf("%s: /api/correlated position %d: span %d under %d, batch correlation has span %d under %d", when, i, sp.ID, sp.ParentID, w.ID, w.ParentID)
		}
	}
	rec := do(s, http.MethodGet, "/api/analysis", "", nil, nil)
	if n := rec.Header().Get("X-Analysis-Spans"); n != strconv.Itoa(len(want.Spans)) {
		t.Fatalf("%s: the analyses observed %s spans, %d were acknowledged", when, n, len(want.Spans))
	}
}

// Thermal cycling for the one overload rule, once per admission budget:
// three times over, a tenant is overdriven past a 4096-span budget, or a
// byte budget of one burst frame, until it sheds, drained, and reset — and
// every invariant is inspected in every cycle, not just the last. Every
// acknowledged span is in every view: the raw view is the stream as fed,
// tracer-sent parents included, the correlated view is its batch
// correlation, and the analyses observed each span once; the tap is empty
// once settled; the reset leaves every view empty; and no cycle leaves a
// goroutine behind. Nothing but the publishers' own retries brings a shed
// tenant back: both budgets drain by themselves.
func TestShedDrainResetCycles(t *testing.T) {
	burstFrame := len(trace.AppendBinaryFrameTenant(nil, "", burstBatch(1, 1<<40)))
	for _, arm := range []struct {
		name   string
		budget func(*Config)
	}{
		{"spans", func(cfg *Config) { cfg.MaxInflightSpans = 4096 }},
		// One 1024-span frame: two overlapping bursts shed, and every body fits.
		{"bytes", func(cfg *Config) { cfg.MaxInflightBytes = int64(burstFrame) }},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := testConfig("")
			cfg.RetryAfter = 5 * time.Millisecond
			arm.budget(&cfg)
			s := newServer(t, cfg)
			tn, _ := s.tenants.Lookup("")
			nextID, goroutines := uint64(1<<32), 0
			for cycle := 1; cycle <= 3; cycle++ {
				shedBefore := tn.ingest.OverloadStats().ShedRequests
				fed := arrivals(int64(100+cycle), 3_000)
				for i, b := range fed {
					for _, sp := range b {
						if sp.ID%41 == 0 && sp.Kind != trace.KindLaunch {
							sp.ParentID = 1 // tracer-sent: the raw view gives it back
						}
					}
					postRetrying(t, s, uint64(cycle)<<20|uint64(i+1), b)
				}
				// Overdrive: bursts of eight concurrent retrying publishers,
				// 1024 spans each, until admission has shed.
				at := vclock.Time(1 << 40)
				for burst := 0; tn.ingest.OverloadStats().ShedRequests == shedBefore; burst++ {
					if burst == 50 {
						t.Fatalf("cycle %d: fifty bursts of eight frames each never shed", cycle)
					}
					var wg sync.WaitGroup
					start := make(chan struct{}) // the eight POSTs leave together
					for p := 0; p < 8; p++ {
						batch := burstBatch(nextID+1, at)
						nextID, at = nextID+uint64(len(batch)), at+vclock.Time(2*len(batch))
						fed = append(fed, batch)
						wg.Add(1)
						go func(id uint64) {
							defer wg.Done()
							<-start
							postRetrying(t, s, id, batch)
						}(nextID)
					}
					close(start)
					wg.Wait()
				}
				if t.Failed() {
					t.FailNow()
				}

				checkViews(t, s, fmt.Sprintf("cycle %d", cycle), fed)
				if d := tn.tap.Depth(); d != 0 {
					t.Fatalf("cycle %d: the settled tap still holds %d spans", cycle, d)
				}

				if rec := do(s, http.MethodPost, "/api/reset", "", nil, nil); rec.Code != http.StatusNoContent {
					t.Fatalf("cycle %d: POST /api/reset: %d", cycle, rec.Code)
				}
				if fedNow := tn.sc.Stats().Fed; fedNow != 0 {
					t.Fatalf("cycle %d: after the reset the history holds %d spans", cycle, fedNow)
				}
				checkViews(t, s, fmt.Sprintf("cycle %d after the reset", cycle), nil)
				if n := runtime.NumGoroutine(); cycle == 1 {
					goroutines = n
				} else if n > goroutines {
					t.Fatalf("cycle %d ends with %d goroutines, cycle 1 ended with %d", cycle, n, goroutines)
				}
			}
		})
	}
}

// burstBatch is one overdriving publisher's frame: 1024 kernels with ids
// from id on, two ticks apart from at on.
func burstBatch(id uint64, at vclock.Time) []*trace.Span {
	batch := make([]*trace.Span, 1_024)
	for i := range batch {
		begin := at + vclock.Time(2*i)
		batch[i] = &trace.Span{ID: id + uint64(i), Level: trace.LevelKernel, Name: "burst", Begin: begin, End: begin + 1}
	}
	return batch
}

// The push-back hint is RetryAfter whether or not a budget is set: a retry
// racing its still-decoding original is a 503 that carries it.
func TestRetryAfterWithoutBudgets(t *testing.T) {
	s := newServer(t, Config{RetryAfter: 250 * time.Millisecond})
	batch := arrivals(97, 300)[0]
	body := &heldBody{r: bytes.NewReader(trace.AppendBinaryFrameTenant(nil, "", batch)), reading: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodPost, "/api/spans", body)
	req.Header.Set("Content-Type", trace.ContentTypeBinary)
	req.Header.Set("X-Batch-Id", "7")
	original := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		original <- rec.Code
	}()
	<-body.reading // the original holds the batch's claim
	retry := post(s, "", 7, batch)
	close(body.release)
	if retry.Code != http.StatusServiceUnavailable || retry.Header().Get("Retry-After") != "0.25" {
		t.Errorf("a retry racing its original: %d with Retry-After %q, want 503 with 0.25", retry.Code, retry.Header().Get("Retry-After"))
	}
	if code := <-original; code != http.StatusAccepted {
		t.Errorf("the original: %d, want 202", code)
	}
}

// heldBody is a request body whose first read waits for release.
type heldBody struct {
	r                io.Reader
	once             sync.Once
	reading, release chan struct{}
}

func (b *heldBody) Read(p []byte) (int, error) {
	b.once.Do(func() {
		close(b.reading)
		<-b.release
	})
	return b.r.Read(p)
}

// A push-back carries Retry-After and none of the stats headers, in either
// mode: the in-flight 503, the 429 and, durable, the 503 of a batch its
// store refused. Their counters are the stats document's.
func TestPushBackCarriesRetryAfterOnly(t *testing.T) {
	for _, dataDir := range []string{"", t.TempDir()} {
		frame := trace.AppendBinaryFrameTenant(nil, "", arrivals(99, 300)[0])
		// The budget holds the original and a one-byte retry, not a second
		// frame.
		s := newServer(t, Config{DataDir: dataDir, MaxInflightBytes: int64(len(frame)) + 1})
		body := &heldBody{r: bytes.NewReader(frame), reading: make(chan struct{}), release: make(chan struct{})}
		req := httptest.NewRequest(http.MethodPost, "/api/spans", body)
		req.ContentLength = int64(len(frame))
		req.Header.Set("Content-Type", trace.ContentTypeBinary)
		req.Header.Set("X-Batch-Id", "7")
		original := make(chan int)
		go func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			original <- rec.Code
		}()
		<-body.reading // the original holds the batch's claim and its bytes
		type pushBack struct {
			what string
			code int
			rec  *httptest.ResponseRecorder
		}
		hdr := map[string]string{"Content-Type": trace.ContentTypeBinary, "X-Batch-Id": "7"}
		pushBacks := []pushBack{{"in-flight retry", http.StatusServiceUnavailable, do(s, http.MethodPost, "/api/spans", "", hdr, []byte{0})}}
		hdr["X-Batch-Id"] = "8"
		pushBacks = append(pushBacks, pushBack{"shed", http.StatusTooManyRequests, do(s, http.MethodPost, "/api/spans", "", hdr, frame)})
		close(body.release)
		if code := <-original; code != http.StatusAccepted {
			t.Errorf("data dir %q: the original: %d, want 202", dataDir, code)
		}
		if dataDir != "" {
			tn, _ := s.tenants.Lookup("")
			tn.store.Close() // the next WAL append fails
			pushBacks = append(pushBacks, pushBack{"store-refused", http.StatusServiceUnavailable, do(s, http.MethodPost, "/api/spans", "", hdr, frame)})
		}
		for _, p := range pushBacks {
			var extra []string
			for name := range p.rec.Header() {
				if name != "Retry-After" && name != "Content-Type" && name != "X-Content-Type-Options" {
					extra = append(extra, name)
				}
			}
			if p.rec.Code != p.code || p.rec.Header().Get("Retry-After") != "1" || len(extra) != 0 {
				t.Errorf("data dir %q: the %s push-back: %d with Retry-After %q and %v, want %d with Retry-After 1 and nothing else",
					dataDir, p.what, p.rec.Code, p.rec.Header().Get("Retry-After"), extra, p.code)
			}
		}
		if st := stats(t, s).Tenants["default"].Admission; st.ShedRequests != 1 || st.ShedSpans != 0 {
			t.Errorf("data dir %q: the stats document counts %d shed requests and %d shed spans, want the one byte-budget shed", dataDir, st.ShedRequests, st.ShedSpans)
		}
	}
}

// An unknown tenant's empty views name the key asked for, in the binary
// frame as in JSON.
func TestUnknownTenantViewsNameTheKey(t *testing.T) {
	s := newServer(t, testConfig(""))
	for _, path := range []string{"/api/trace", "/api/correlated"} {
		rec := do(s, http.MethodGet, path, "ghost", map[string]string{"Accept": trace.ContentTypeBinary}, nil)
		if tr, err := trace.DecodeBinary(rec.Body); rec.Code != http.StatusOK || err != nil || tr.Tenant != "ghost" || len(tr.Spans) != 0 {
			t.Errorf("GET %s for an unknown tenant: %d, %v, %+v; want an empty frame naming ghost", path, rec.Code, err, tr)
		}
	}
}

// An in-process publish into the default tenant (the compat Collector the
// benchmark's replica publishes recovered spans through) is held once, by
// the correlator — not also by the ingest half beside it — in RAM mode and
// durable alike, and it survives a restart like an accepted batch.
func TestInProcessPublishIsHeldOnce(t *testing.T) {
	for _, dataDir := range []string{"", t.TempDir()} {
		cfg := testConfig(dataDir)
		s := newServer(t, cfg)
		layer := &trace.Span{ID: 1, Level: trace.LevelLayer, Name: "l", Begin: 10, End: 20}
		kernel := &trace.Span{ID: 2, Level: trace.LevelKernel, Name: "k", Begin: 12, End: 14}
		s.ingest.Tenant(trace.DefaultTenant).Collector().Publish(layer.Clone(), kernel.Clone())
		checkViews(t, s, fmt.Sprintf("data dir %q", dataDir), [][]*trace.Span{{layer, kernel}})
		if dataDir != "" {
			s.Close()
			checkViews(t, newServer(t, cfg), "after a restart", [][]*trace.Span{{layer, kernel}})
		}
	}
}

// Tenants minted concurrently are each opened once. On a durable server,
// eight writers race each other onto sixteen fresh keys while readers poll
// the three endpoints that walk every tenant. Each key ends with one store
// directory and one recovery line; /api/tenants lists it once, in the order
// the tenants were opened, and every listing a reader saw was a prefix of
// the last; every batch is acknowledged once and held once; no read panics.
func TestConcurrentMintingOpensEachTenantOnce(t *testing.T) {
	const writers, keys = 8, 16
	dir := t.TempDir()
	var final []string
	stderr := captureStderr(t, func() {
		s := newServer(t, testConfig(dir))
		var (
			writing, reading sync.WaitGroup
			done             atomic.Bool
			sent             [keys][]uint64 // span ids per key
			sentMu           sync.Mutex
		)
		for w := 0; w < writers; w++ {
			writing.Add(1)
			go func(w int) {
				defer writing.Done()
				for i := 0; i < keys; i++ {
					k := (i + w) % keys // every key is fresh to someone at once
					id := uint64(k*writers+w) + 1
					batch := []*trace.Span{{ID: id, Level: trace.LevelModel, Name: "m", Begin: vclock.Time(id), End: vclock.Time(id + 1)}}
					rec := post(s, fmt.Sprintf("mint-%02d", k), id, batch)
					if rec.Code != http.StatusAccepted || rec.Header().Get("X-Duplicate-Batch") != "" {
						t.Errorf("writer %d, key %d: %d %q (duplicate %q)", w, k, rec.Code, rec.Body, rec.Header().Get("X-Duplicate-Batch"))
					}
					sentMu.Lock()
					sent[k] = append(sent[k], id)
					sentMu.Unlock()
				}
			}(w)
		}
		listings := make([][][]string, 3)
		for r := range listings {
			reading.Add(1)
			go func(r int) {
				defer reading.Done()
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("reader %d panicked: %v", r, p)
					}
				}()
				for !done.Load() {
					var listed []string
					if err := json.Unmarshal(get(t, s, "/api/tenants", ""), &listed); err != nil {
						t.Error(err)
						return
					}
					listings[r] = append(listings[r], listed)
					get(t, s, "/api/overload", "")
					stats(t, s)
				}
			}(r)
		}
		writing.Wait()
		done.Store(true)
		reading.Wait()

		if err := json.Unmarshal(get(t, s, "/api/tenants", ""), &final); err != nil {
			t.Fatal(err)
		}
		for r, ls := range listings {
			for _, l := range ls {
				if !slices.Equal(l, final[:min(len(l), len(final))]) {
					t.Errorf("reader %d saw %v, not a prefix of the final %v", r, l, final)
				}
			}
		}
		for k := range sent {
			key := fmt.Sprintf("mint-%02d", k)
			tr, err := trace.DecodeJSON(bytes.NewReader(get(t, s, "/api/trace", key)))
			if err != nil {
				t.Fatal(err)
			}
			var held []uint64
			for _, sp := range tr.Spans {
				held = append(held, sp.ID)
			}
			slices.Sort(held)
			slices.Sort(sent[k])
			if !slices.Equal(held, sent[k]) {
				t.Errorf("%s holds spans %v, was sent %v", key, held, sent[k])
			}
			if rec := post(s, key, sent[k][0], nil); rec.Header().Get("X-Duplicate-Batch") != "1" {
				t.Errorf("%s: a re-shipped batch was not a duplicate: %d", key, rec.Code)
			}
		}
	})

	if len(final) != keys+1 || final[0] != trace.DefaultTenant {
		t.Fatalf("/api/tenants = %v, want the default tenant and %d minted keys", final, keys)
	}
	var opened []string // the recovery lines, in the order the tenants opened
	for _, line := range strings.Split(stderr, "\n") {
		if key, ok := strings.CutPrefix(line, "xsp-server: tenant "); ok && strings.Contains(key, " recovered ") {
			opened = append(opened, key[:strings.Index(key, " ")])
		}
	}
	if !slices.Equal(opened, final) {
		t.Errorf("recovery lines name %v; /api/tenants lists %v", opened, final)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "tenants"))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		dirs = append(dirs, e.Name())
	}
	want := slices.Clone(final[1:])
	slices.Sort(want)
	if !slices.Equal(dirs, want) {
		t.Errorf("store directories %v, want %v", dirs, want)
	}
}

func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = old }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func jsonKeys(t *testing.T, body []byte, path ...string) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	for _, p := range path {
		m, ok := v.(map[string]any)
		if !ok || m[p] == nil {
			t.Fatalf("no %q under %v in %s", p, path, body)
		}
		v = m[p]
	}
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("%v is not an object in %s", path, body)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestExternalContract pins what clients and supervisors of xsp-server see,
// over an in-process durable server with live analyses: status codes,
// headers, JSON keys, stderr wording and the directory layout. No reply
// carries a stat header: the stats document is the one place a counter is
// published.
func TestExternalContract(t *testing.T) {
	dataDir := t.TempDir()
	cfg := testConfig(dataDir)
	var srv *Server
	boot := captureStderr(t, func() { srv = newServer(t, cfg) })
	s := noStatHeaders(t, srv)
	for _, line := range []string{
		"xsp-server: live analyses on (Tesla_V100)\n",
		"xsp-server: tenant default recovered 0 segment(s), 0 live batch record(s), 0 dedup id(s)\n",
		"xsp-server: streaming correlation on (reorder window 64ns, retain 512ns)\n",
	} {
		if !strings.Contains(boot, line) {
			t.Errorf("boot stderr lacks %q:\n%s", line, boot)
		}
	}
	for i, b := range arrivals(91, 3_000) {
		for _, tenant := range []string{"", "acme"} {
			if rec := post(s, tenant, uint64(i+1), b); rec.Code != http.StatusAccepted {
				t.Fatalf("tenant %q batch %d: %d %s", tenant, i+1, rec.Code, rec.Body)
			}
		}
	}

	endpoints := []struct {
		path, method string
		addressed    bool // resolves a tenant: 400 on a bad key, empty answer for an unknown one
		empty        string
	}{
		{"/api/spans", http.MethodPost, false, ""},
		{"/api/trace", http.MethodGet, true, "{\n \"tenant\": \"ghost\",\n \"spans\": []\n}\n"},
		{"/api/tenants", http.MethodGet, false, ""},
		{"/api/overload", http.MethodGet, false, ""},
		{"/api/durability", http.MethodGet, false, ""},
		{"/api/reset", http.MethodPost, true, ""},
		{"/api/checkpoint", http.MethodPost, true, "{\"folded\":0}\n"},
		{"/api/correlated", http.MethodGet, true, "{\n \"tenant\": \"ghost\",\n \"spans\": []\n}\n"},
		{"/api/analysis", http.MethodGet, true, string(get(t, noStatHeaders(t, newServer(t, testConfig(""))), "/api/analysis", ""))},
		{"/api/analysis/layers", http.MethodGet, true, ""},
		{"/api/analysis/launchgaps", http.MethodGet, true, ""},
		{"/api/analysis/memcpy", http.MethodGet, true, ""},
		{"/api/analysis/roofline", http.MethodGet, true, ""},
	}
	tenantsBefore := string(get(t, s, "/api/tenants", ""))
	if tenantsBefore != "[\"default\",\"acme\"]\n" {
		t.Errorf("/api/tenants: %q", tenantsBefore)
	}
	for _, e := range endpoints {
		wrong := http.MethodGet
		if e.method == http.MethodGet {
			wrong = http.MethodPost
		}
		for _, m := range []string{wrong, http.MethodDelete} {
			if rec := do(s, m, e.path, "", nil, nil); rec.Code != http.StatusMethodNotAllowed || rec.Body.String() != e.method+" required\n" {
				t.Errorf("%s %s: %d %q, want 405 %q", m, e.path, rec.Code, rec.Body, e.method+" required")
			}
		}
		if !e.addressed {
			continue
		}
		for _, bad := range []string{".hidden", "a/b", strings.Repeat("x", 65)} {
			if rec := do(s, e.method, e.path+"?tenant="+bad, "", nil, nil); rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s for tenant %q: %d, want 400", e.method, e.path, bad, rec.Code)
			}
		}
		rec := do(s, e.method, e.path, "ghost", nil, nil)
		if rec.Code/100 != 2 || (e.empty != "" && rec.Body.String() != e.empty) {
			t.Errorf("%s %s for an unknown tenant: %d %q, want the empty answer %q", e.method, e.path, rec.Code, rec.Body, e.empty)
		}
		if h := rec.Header(); h.Get("X-Analysis-Spans") != "" && h.Get("X-Analysis-Spans") != "0" {
			t.Errorf("%s %s for an unknown tenant carries a live tenant's headers: %v", e.method, e.path, h)
		}
	}
	if after := string(get(t, s, "/api/tenants", "")); after != tenantsBefore {
		t.Errorf("reads of an unknown tenant minted it: /api/tenants %q, was %q", after, tenantsBefore)
	}
	if rec := do(s, http.MethodGet, "/api/analysis/bogus", "", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("GET /api/analysis/bogus: %d, want 404", rec.Code)
	}

	rec := do(s, http.MethodGet, "/api/correlated?flush=1", "acme", map[string]string{"Accept": trace.ContentTypeBinary}, nil)
	if ct := rec.Header().Get("Content-Type"); ct != trace.ContentTypeBinary {
		t.Errorf("/api/correlated with Accept: %s answered %s", trace.ContentTypeBinary, ct)
	}
	if tr, err := trace.DecodeBinary(rec.Body); err != nil || tr.Tenant != "acme" || len(tr.Spans) == 0 {
		t.Errorf("/api/correlated binary body: %v, %+v", err, tr)
	}
	if ct := do(s, http.MethodGet, "/api/correlated", "acme", nil, nil).Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/api/correlated without Accept answered %s", ct)
	}

	rec = do(s, http.MethodGet, "/api/analysis/roofline?flush=1", "acme", nil, nil)
	if n, err := strconv.Atoi(rec.Header().Get("X-Analysis-Spans")); err != nil || n == 0 || rec.Header().Get("X-Analysis-GPU") != "Tesla_V100" {
		t.Errorf("/api/analysis headers: X-Analysis-Spans %q, X-Analysis-GPU %q", rec.Header().Get("X-Analysis-Spans"), rec.Header().Get("X-Analysis-GPU"))
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/analysis/layers?watch=1&interval=5ms&tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	var lines []string
	for len(lines) < 6 && sc.Scan() {
		lines = append(lines, sc.Text())
	}
	resp.Body.Close()
	if len(lines) != 6 || lines[0] != "event: analysis" || !strings.HasPrefix(lines[1], "data: {") || lines[2] != "" || lines[3] != lines[0] {
		t.Errorf("SSE framing: %q", lines)
	}
	if rec := do(s, http.MethodGet, "/api/analysis?watch=1&interval=soon", "", nil, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad SSE interval: %d, want 400", rec.Code)
	}
	// A watcher cannot ask for more than one event a millisecond: each one
	// re-encodes a snapshot under the lock ingest observes spans through.
	resp, err = http.Get(ts.URL + "/api/analysis/layers?watch=1&interval=1ns&tenant=ghost")
	if err != nil {
		t.Fatal(err)
	}
	sc, events := bufio.NewScanner(resp.Body), 0
	for start := time.Now(); time.Since(start) < time.Second && sc.Scan(); {
		if sc.Text() == "event: analysis" {
			events++
		}
	}
	resp.Body.Close()
	if events < 2 || events > 1_100 {
		t.Errorf("a 1ns watcher was sent %d events in a second, want one a millisecond at most", events)
	}

	// /api/overload and /api/durability are one document, in either mode.
	ram := noStatHeaders(t, newServer(t, testConfig("")))
	post(ram, "", 1, arrivals(93, 300)[0])
	sent := 0
	for _, b := range arrivals(91, 3_000) {
		sent += len(b)
	}
	for _, mode := range []struct {
		name                     string
		s                        http.Handler
		keys, tenantKeys, tenant string
	}{
		{"durable", s, "[admission dir tenants]", "[admission dir load recovery store stream]", "acme"},
		{"RAM", ram, "[admission tenants]", "[admission load stream tap]", "default"},
	} {
		doc := get(t, mode.s, "/api/overload", "")
		if dur := get(t, mode.s, "/api/durability", ""); !bytes.Equal(doc, dur) {
			t.Errorf("%s: /api/overload and /api/durability differ:\n%s\n%s", mode.name, doc, dur)
		}
		if got := jsonKeys(t, doc); fmt.Sprint(got) != mode.keys {
			t.Errorf("%s: stats document keys %v, want %s", mode.name, got, mode.keys)
		}
		if got := jsonKeys(t, doc, "admission"); fmt.Sprint(got) != "[InflightBytes InflightSpans ShedRequests ShedSpans TapDepth]" {
			t.Errorf("%s: admission keys %v", mode.name, got)
		}
		if got := jsonKeys(t, doc, "tenants", mode.tenant); fmt.Sprint(got) != mode.tenantKeys {
			t.Errorf("%s: tenant keys %v, want %s", mode.name, got, mode.tenantKeys)
		}
		if got := jsonKeys(t, doc, "tenants", mode.tenant, "stream"); fmt.Sprint(got) != "[Buffered Checkpointed Compactions CorrEntries CorrEvicted DegradedWindows Fed Live PendingExecs Released Reopens Repaired Segments Stragglers WindowsChained]" {
			t.Errorf("%s: stream keys %v", mode.name, got)
		}
	}
	dur := get(t, s, "/api/durability", "")
	if got := jsonKeys(t, dur, "tenants", "acme", "recovery"); fmt.Sprint(got) != "[batch_records dedup_ids segments]" {
		t.Errorf("/api/durability recovery keys %v", got)
	}
	if got := jsonKeys(t, dur, "tenants", "acme", "store"); fmt.Sprint(got) != "[DedupIDs SegmentBytes Segments WALBytes WALRecords]" {
		t.Errorf("/api/durability store keys %v", got)
	}
	// The stream row is the correlator's counters: acme, flushed above,
	// was fed and released every span it acknowledged.
	if st := stats(t, s).Tenants["acme"].Stream; st == nil || st.Fed != sent || st.Released != sent || st.Buffered+st.PendingExecs != 0 {
		t.Errorf("acme's stream row %+v, want %d spans fed and released, none pending", st, sent)
	}

	// The layout: the default tenant at the root, any other under tenants/.
	view := stats(t, s)
	for key, dir := range map[string]string{"default": dataDir, "acme": filepath.Join(dataDir, "tenants", "acme")} {
		if view.Tenants[key].Dir != dir {
			t.Errorf("tenant %s reports dir %q, want %q", key, view.Tenants[key].Dir, dir)
		}
		if wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal")); len(wals) != 1 {
			t.Errorf("tenant %s: WAL files in %s: %v", key, dir, wals)
		}
	}

	// Reset answers 204 and empties exactly its tenant, durably.
	if rec := do(s, http.MethodPost, "/api/reset", "acme", nil, nil); rec.Code != http.StatusNoContent {
		t.Errorf("POST /api/reset: %d", rec.Code)
	}
	if got := string(get(t, s, "/api/correlated?flush=1", "acme")); got != "{\n \"tenant\": \"acme\",\n \"spans\": []\n}\n" {
		t.Errorf("acme after its reset: %q", got)
	}
	if got, err := trace.DecodeJSON(bytes.NewReader(get(t, s, "/api/trace", ""))); err != nil || len(got.Spans) == 0 {
		t.Errorf("default tenant after acme's reset: %v, %d spans", err, len(got.Spans))
	}

	// A tenant whose store cannot open degrades to RAM-only, and says so.
	blocked := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var degraded http.Handler
	boot = captureStderr(t, func() { degraded = noStatHeaders(t, newServer(t, testConfig(blocked))) })
	if !strings.Contains(boot, "xsp-server: tenant default degraded to RAM-only: ") {
		t.Errorf("boot stderr of a server over an unusable data dir:\n%s", boot)
	}
	if rec := post(degraded, "", 1, arrivals(95, 300)[0]); rec.Code != http.StatusAccepted {
		t.Errorf("POST to the degraded tenant: %d %s", rec.Code, rec.Body)
	}
	if d := stats(t, degraded).Tenants["default"]; d.Err == "" {
		t.Errorf("/api/durability does not report the degraded tenant's error")
	}

	// What New refuses: the one name that can be wrong. The zero Config runs,
	// live analyses included, against the default GPU.
	if _, err := New(Config{GPU: "Voodoo2"}); err == nil {
		t.Errorf("New with -gpu Voodoo2 succeeded")
	}
	zero, batch := noStatHeaders(t, newServer(t, Config{})), arrivals(97, 300)[0]
	if rec := post(zero, "", 1, batch); rec.Code != http.StatusAccepted {
		t.Errorf("POST to a zero-Config server: %d %s", rec.Code, rec.Body)
	}
	if rec := do(zero, http.MethodGet, "/api/analysis?flush=1", "", nil, nil); rec.Code != http.StatusOK ||
		rec.Header().Get("X-Analysis-GPU") != gpu.TeslaV100.Name || rec.Header().Get("X-Analysis-Spans") != strconv.Itoa(len(batch)) {
		t.Errorf("GET /api/analysis from a zero-Config server: %d, GPU %q, %q spans",
			rec.Code, rec.Header().Get("X-Analysis-GPU"), rec.Header().Get("X-Analysis-Spans"))
	}
}

// A tenant whose store cannot open runs RAM-only with the open error latched
// in its correlator, the one latch a later store error would set:
// DurabilityErr reports it, boot says it, and the stats document serves it
// as the tenant's err beside the keys a storeless tenant has.
func TestDegradedTenantLatchesOpenError(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var s *Server
	boot := captureStderr(t, func() { s = newServer(t, testConfig(blocked)) })
	tn, ok := s.tenants.Lookup(trace.DefaultTenant)
	if !ok {
		t.Fatal("no default tenant after boot")
	}
	latched := tn.sc.DurabilityErr()
	if latched == nil || !strings.HasPrefix(latched.Error(), `core: tenant "default" durable store: `) {
		t.Fatalf("the degraded tenant's correlator latched %v, want its store's open error", latched)
	}
	if !strings.Contains(boot, "xsp-server: tenant default degraded to RAM-only: "+latched.Error()+"\n") {
		t.Errorf("boot stderr does not name the latched error %q:\n%s", latched, boot)
	}
	var doc struct {
		Tenants map[string]map[string]json.RawMessage `json:"tenants"`
	}
	if err := json.Unmarshal(get(t, s, "/api/durability", ""), &doc); err != nil {
		t.Fatal(err)
	}
	d := doc.Tenants["default"]
	var keys []string
	for k := range d {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"admission", "dir", "err", "load", "stream"}; !slices.Equal(keys, want) {
		t.Errorf("degraded tenant's stats keys %v, want %v", keys, want)
	}
	var served string
	if err := json.Unmarshal(d["err"], &served); err != nil || served != latched.Error() {
		t.Errorf("/api/durability serves err %q (%v), want %q", served, err, latched)
	}
}
