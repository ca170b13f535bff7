package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xsp/internal/analysis"
	"xsp/internal/trace"
)

// analysisThink is the reader's pause between /api/analysis queries.
const analysisThink = 100 * time.Millisecond

// correlatedQueries is how many /api/correlated reads a reading workload
// makes: one each time acknowledged batches cross k/8 of the run.
const correlatedQueries = 4

// quiescentQueries is how many /api/analysis reads a workload without a
// reader makes after its window, so the read path has a number everywhere.
const quiescentQueries = 20

// Target is a server under load: the real binary or the replica.
type Target struct {
	BaseURL   string
	Transport http.RoundTripper // shared by every connection of the load generator
	Rec       *Recorder         // nil with tracing off
	Root      int               // the run span every load-generator span hangs under
}

// PlanBatches is how many batches each tenant's publisher sends in a run
// of the given length: the same count against the binary and the replica,
// so the two ingest identical streams.
func PlanBatches(w Workload, seconds float64) int {
	return max(int(w.BatchesPerSec*seconds+0.5), correlatedQueries)
}

// LoadResult is everything the load generator measured.
type LoadResult struct {
	Tenants []TenantResult

	AckMS     []float64     // per batch, every tenant
	Window    time.Duration // first POST → flush returned for every tenant
	Drain     time.Duration // last ack → flush returned
	FlushBusy time.Duration // time inside HTTPCollector.Flush
	PostWait  time.Duration // of which waiting on the HTTP round trip
	GenBusy   time.Duration // load generator's own batch preparation
	WireBytes int64         // request body bytes POSTed
	Retries   int           // POSTs beyond the first per batch
	Late      int           // open loop: batches sent more than one interval late

	AnalysisMS      []float64 // GET /api/analysis latencies
	AnalysisBytes   int64     // size of the last /api/analysis body
	LayerRows       int       // layer rows in it
	CorrelatedUSPer []float64 // GET /api/correlated: µs per 1000 spans returned

	Attempted int // operations: POSTs, queries
	Failed    int
	Errors    []string // first few failures, for the report
}

// TenantResult is one tenant's share plus what the end-of-window flush
// reported for it.
type TenantResult struct {
	Tenant      string
	Batches     int
	Spans       int
	MemcpyBytes [2]int64

	AnalysisSpans int64 // X-Analysis-Spans after ?flush=1
	Memcpy        analysis.OnlineMemcpySnapshot
}

func (r *LoadResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// countingTransport sits under one publisher's HTTPCollector. It always
// counts (two clock reads per batch); it records spans only when traced.
type countingTransport struct {
	inner http.RoundTripper
	rec   *Recorder
	flush int // the flush span in flight; one publisher, one goroutine

	wait  time.Duration
	bytes int64
	posts int
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	span := 0
	if t.rec != nil {
		batch, _ := strconv.ParseUint(req.Header.Get("X-Batch-Id"), 16, 64)
		span = t.rec.Begin("trace.collector", "post", DepthStage, t.flush, batch)
		t.rec.SetBatch(t.flush, batch)
		t.rec.Link(batch, span)
	}
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	t.wait += time.Since(start)
	if t.rec != nil {
		t.rec.End(span)
	}
	t.bytes += max(req.ContentLength, 0)
	t.posts++
	return resp, err
}

type publisher struct {
	tgt    Target
	col    *trace.HTTPCollector
	rt     *countingTransport
	replay *Replay

	ackMS     []float64
	flushBusy time.Duration
	genBusy   time.Duration
	lastAck   time.Time
	failed    []string
}

func newPublisher(tgt Target, in *Input) *publisher {
	p := &publisher{tgt: tgt, replay: NewReplay(in)}
	p.rt = &countingTransport{inner: tgt.Transport, rec: tgt.Rec}
	p.col = trace.NewHTTPCollector(tgt.BaseURL)
	p.col.SetHTTPClient(&http.Client{Transport: p.rt})
	p.col.SetRetryPolicy(trace.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond})
	if in.Tenant != "" {
		if err := p.col.SetTenant(in.Tenant); err != nil {
			panic(err) // the tenant keys are constants of this package
		}
	}
	return p
}

// send ships the next batch and times its acknowledgement, from due when
// the schedule is open-loop and from the moment of sending otherwise.
func (p *publisher) send(due time.Time) {
	g0 := time.Now()
	batch := p.replay.Next()
	p.col.Publish(batch...)
	t0 := time.Now()
	p.genBusy += t0.Sub(g0)
	if p.tgt.Rec != nil {
		p.rt.flush = p.tgt.Rec.Begin("trace.collector", "flush", DepthStage, p.tgt.Root, 0)
	}
	_, err := p.col.Flush()
	t1 := time.Now()
	if p.tgt.Rec != nil {
		p.tgt.Rec.End(p.rt.flush)
	}
	p.flushBusy += t1.Sub(t0)
	if due.IsZero() {
		due = t0
	}
	p.ackMS = append(p.ackMS, ms(t1.Sub(due)))
	p.lastAck = t1
	if err != nil {
		p.failed = append(p.failed, "POST /api/spans: "+err.Error())
		// The batch stays queued in the collector; land it before the
		// scratch buffer is reused, so the span counts still add up.
		for stop := time.Now().Add(10 * time.Second); p.col.Backlog() > 0 && time.Now().Before(stop); {
			time.Sleep(10 * time.Millisecond)
			_, _ = p.col.Flush()
		}
	}
}

// sleepUntil idles the calling goroutine and, when traced, says so.
func sleepUntil(tgt Target, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if tgt.Rec != nil {
		defer tgt.Rec.End(tgt.Rec.Begin("loadgen.idle", "sleep", DepthStage, tgt.Root, 0))
	}
	time.Sleep(d)
}

// RunLoad drives one workload against the target and returns what it saw.
func RunLoad(w Workload, inputs []*Input, tgt Target, batches int) *LoadResult {
	res := &LoadResult{}
	client := &http.Client{Transport: tgt.Transport}
	pubs := make([]*publisher, len(inputs))
	for i, in := range inputs {
		pubs[i] = newPublisher(tgt, in)
	}

	var acked atomic.Int64 // batches acknowledged, for the reader's progress triggers
	var readerDone chan struct{}
	writersDone := make(chan struct{})
	if w.Reads {
		readerDone = make(chan struct{})
		go func() {
			defer close(readerDone)
			runReader(tgt, client, res, &acked, batches, writersDone)
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, p := range pubs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !w.OpenLoop {
				for b := 0; b < batches; b++ {
					p.send(time.Time{})
					acked.Add(1)
				}
				return
			}
			clock := DueClock{Start: start, Interval: time.Duration(float64(time.Second) / w.BatchesPerSec)}
			for b := 0; b < batches; b++ {
				sleepUntil(tgt, clock.Due(b))
				if clock.Late(b, time.Now()) {
					res.Late++ // the one open-loop writer: no other goroutine touches Late
				}
				p.send(clock.Due(b))
				acked.Add(1)
			}
		}()
	}
	wg.Wait()
	close(writersDone)
	if readerDone != nil {
		<-readerDone
	}

	// The flush is inside the window: an acknowledgement is not a result.
	var lastAck time.Time
	for _, p := range pubs {
		tr := TenantResult{Tenant: p.replay.in.Tenant, Batches: p.replay.next, Spans: p.replay.Spans, MemcpyBytes: p.replay.MemcpyBytes}
		span := 0
		if tgt.Rec != nil {
			span = tgt.Rec.Begin("loadgen", "flush_query", DepthStage, tgt.Root, 0)
		}
		res.Attempted++
		hdr, body, err := get(client, tgt.BaseURL+"/api/analysis/memcpy?flush=1", tr.Tenant, span)
		if tgt.Rec != nil {
			tgt.Rec.End(span)
		}
		if err != nil {
			res.fail("flush %q: %v", tr.Tenant, err)
		} else {
			tr.AnalysisSpans, _ = strconv.ParseInt(hdr.Get("X-Analysis-Spans"), 10, 64)
			if err := json.Unmarshal(body, &tr.Memcpy); err != nil {
				res.fail("flush %q: %v", tr.Tenant, err)
			}
		}
		res.Tenants = append(res.Tenants, tr)
		if p.lastAck.After(lastAck) {
			lastAck = p.lastAck
		}
	}
	end := time.Now()
	res.Window = end.Sub(start)
	res.Drain = end.Sub(lastAck)

	for _, p := range pubs {
		res.AckMS = append(res.AckMS, p.ackMS...)
		res.FlushBusy += p.flushBusy
		res.PostWait += p.rt.wait
		res.GenBusy += p.genBusy
		res.WireBytes += p.rt.bytes
		res.Retries += p.rt.posts - len(p.ackMS)
		res.Attempted += len(p.ackMS)
		for _, e := range p.failed {
			res.fail("%s", e)
		}
	}

	return res
}

// QueryQuiescent gives a workload without a reader its /api/analysis
// numbers: a short closed loop of reads once the window is over.
func QueryQuiescent(tgt Target, res *LoadResult, tenant string) {
	client := &http.Client{Transport: tgt.Transport}
	for q := 0; q < quiescentQueries; q++ {
		queryAnalysis(tgt, client, res, tenant)
	}
}

// runReader is the second connection of a reading workload (which has one
// tenant, the default): analysis
// snapshots in a closed loop with think time, and one full correlated
// trace each time the writer's progress crosses the next eighth — tied to
// progress, not to wall time, so query k sees the same state on every run.
func runReader(tgt Target, client *http.Client, res *LoadResult, acked *atomic.Int64, total int, writersDone <-chan struct{}) {
	k := 1
	for {
		done := false
		select {
		case <-writersDone:
			done = true
		default:
		}
		if k <= correlatedQueries && acked.Load() >= int64(k*total/correlatedQueries) {
			queryCorrelated(tgt, client, res)
			k++
			continue
		}
		if done {
			return
		}
		queryAnalysis(tgt, client, res, "")
		sleepUntil(tgt, time.Now().Add(analysisThink))
	}
}

func queryAnalysis(tgt Target, client *http.Client, res *LoadResult, tenant string) {
	span := 0
	if tgt.Rec != nil {
		span = tgt.Rec.Begin("loadgen", "query_analysis", DepthStage, tgt.Root, 0)
		defer tgt.Rec.End(span)
	}
	res.Attempted++
	t0 := time.Now()
	_, body, err := get(client, tgt.BaseURL+"/api/analysis", tenant, span)
	if err != nil {
		res.fail("GET /api/analysis: %v", err)
		return
	}
	res.AnalysisMS = append(res.AnalysisMS, ms(time.Since(t0)))
	res.AnalysisBytes = int64(len(body))
	var snap struct {
		Layers struct{ Layers []json.RawMessage }
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		res.fail("GET /api/analysis: %v", err)
		return
	}
	res.LayerRows = len(snap.Layers.Layers)
}

func queryCorrelated(tgt Target, client *http.Client, res *LoadResult) {
	span := 0
	if tgt.Rec != nil {
		span = tgt.Rec.Begin("loadgen", "query_correlated", DepthStage, tgt.Root, 0)
		defer tgt.Rec.End(span)
	}
	res.Attempted++
	t0 := time.Now()
	tr, err := fetchCorrelated(client, tgt.BaseURL, false, span)
	if err != nil {
		res.fail("GET /api/correlated: %v", err)
		return
	}
	if n := len(tr.Spans); n > 0 {
		res.CorrelatedUSPer = append(res.CorrelatedUSPer, float64(time.Since(t0))/float64(time.Microsecond)/(float64(n)/1000))
	}
}

// fetchCorrelated reads the default tenant's correlated trace in the
// binary encoding and decodes all of it.
func fetchCorrelated(client *http.Client, baseURL string, flush bool, cause int) (*trace.Trace, error) {
	url := baseURL + "/api/correlated"
	if flush {
		url += "?flush=1"
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", trace.ContentTypeBinary)
	if cause != 0 {
		req.Header.Set(causeHeader, strconv.Itoa(cause))
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s", resp.Status)
	}
	return trace.DecodeBinary(resp.Body)
}

// get reads a JSON endpoint fully; anything but 200 is an error. cause is
// the load generator's span for the read when traced, 0 otherwise.
func get(client *http.Client, url, tenant string, cause int) (http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	if tenant != "" {
		req.Header.Set(trace.TenantHeader, tenant)
	}
	if cause != 0 {
		req.Header.Set(causeHeader, strconv.Itoa(cause))
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s", resp.Status)
	}
	return resp.Header, body, nil
}
