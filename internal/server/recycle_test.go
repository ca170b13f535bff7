package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"xsp/internal/trace"
	"xsp/internal/workload"
)

// TestRAMTenantRecyclesDecodedSpans holds the server's own ingest path — a
// binary POST decoded by the ingest half, queued on the RAM tenant's tap and
// fed owned to its correlator — to a steady-state allocation budget, in
// ram_nested's configuration. A fold gives the slots of the spans it encodes
// back, with their tag and metric arrays, and the next decodes refill them:
// what a span costs is the block its fold keeps, its decode's blob and the
// live analyses' share (186 B measured; 240 while every decode carved fresh
// entry arenas, 304 while every ladder merge copied an 8-byte reference per
// span). A tenant that fed its spans lent, so that every decode carved fresh
// chunks, read 506.
func TestRAMTenantRecyclesDecodedSpans(t *testing.T) {
	const budget = 210 // B/span
	// One P: the tap's worker and the handler share it, as under the bench,
	// and a pooled buffer stays within reach of the next Get (see
	// TestStreamAllocBudget's owned arm).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newServer(t, Config{ReorderWindow: 64, Retain: 10 * time.Microsecond, CorrRetain: 100 * time.Microsecond})
	const batchSize, warm, runs = 512, 100, 200
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{
			Spans: batchSize * (warm + runs), Seed: 46, KernelMetrics: true, MemcpysPerLayer: 1,
			LayerTypes: []string{"Conv2D", "Relu", "BatchNorm"},
		},
		BatchSize: batchSize, ReorderSkew: 48, Seed: 46,
	})
	if len(batches) < warm+runs {
		t.Fatalf("%d batches, want %d", len(batches), warm+runs)
	}
	// Every request is built before the window: it measures the server.
	reqs := make([]*http.Request, warm+runs)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/api/spans", bytes.NewReader(trace.AppendBinaryFrameTenant(nil, "", batches[i])))
		reqs[i].Header.Set("Content-Type", trace.ContentTypeBinary)
		reqs[i].Header.Set("X-Batch-Id", strconv.Itoa(i+1))
	}
	// Each 202 is followed by the tap's feed of its batch, as a closed-loop
	// client over a socket leaves it: the handler's goroutine waits for the
	// next request while the worker runs. (Served back to back, the handler
	// would decode up to the tap's whole bound ahead of the folds that free
	// slots for it.)
	tn, _ := s.tenants.Lookup(trace.DefaultTenant)
	serve := func(from, to int) (spans int) {
		for i := from; i < to; i++ {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, reqs[i])
			if rec.Code != http.StatusAccepted {
				t.Fatalf("batch %d: %d %s", i, rec.Code, rec.Body)
			}
			tn.settle()
			reqs[i] = nil
			spans += len(batches[i])
		}
		return spans
	}
	serve(0, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	spans := serve(warm, warm+runs)
	runtime.ReadMemStats(&after)
	perSpan := float64(after.TotalAlloc-before.TotalAlloc) / float64(spans)
	t.Logf("steady-state ingest: %.0f B/span over %d batches (%d GC cycles)", perSpan, runs, after.NumGC-before.NumGC)
	if st := tn.sc.Stats(); st.Checkpointed == 0 {
		t.Fatalf("nothing folded: the window recycles nothing (%+v)", st)
	}
	budgetNow := float64(budget)
	if raceEnabled {
		budgetNow += 160 // sync.Pool drops items at random under -race: see TestStreamAllocBudget
	}
	if perSpan > budgetNow {
		t.Fatalf("steady-state ingest allocates %.0f B/span, budget %v", perSpan, budgetNow)
	}
}
