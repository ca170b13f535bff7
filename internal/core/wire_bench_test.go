package core_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"xsp/internal/core"
	"xsp/internal/trace"
	"xsp/internal/workload"
)

// scTap feeds tapped publishes straight into a StreamCorrelator — the
// wiring a live profiling server runs (collector → /api/spans → tap →
// stream correlation).
type scTap struct{ sc *core.StreamCorrelator }

func (t scTap) Publish(spans ...*trace.Span) { t.sc.Feed(spans...) }

// BenchmarkIngestToCorrelate times the whole ingest hot path end to end:
// HTTPCollector encode → POST /api/spans → server decode → publish → tap
// → stream correlation, once per wire encoding (the json variant posts
// JSON bodies itself). One op is a full 32k-span stream shipped in
// 1024-span batches — big enough that the wire codec, not the HTTP round
// trip, is what each post costs. The binary frame
// decodes straight into the span arena (one allocation per 256 spans,
// strings aliasing the frame blob), so spans/s and B/op against the json
// variant are the wire format's scorecard. Run with -benchmem: the gap is
// mostly allocation.
func BenchmarkIngestToCorrelate(b *testing.B) {
	const n = 32_768
	const batchSize = 1_024
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace:     workload.SyntheticSpec{Spans: n, Seed: 42},
		BatchSize: batchSize, ReorderSkew: 48, Seed: 42,
	})
	total := 0
	for _, batch := range batches {
		total += len(batch)
	}

	// One listener for the whole benchmark; each iteration swaps in a
	// fresh server+correlator so span IDs never repeat within a stream.
	var current atomic.Value // *trace.Server
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().(*trace.Server).ServeHTTP(w, r)
	}))
	defer ts.Close()

	for _, enc := range []string{"binary", "json"} {
		b.Run(enc, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv := trace.NewServer()
				sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 48})
				srv.Tenant(trace.DefaultTenant).SetTap(scTap{sc})
				current.Store(srv)
				col := trace.NewHTTPCollector(ts.URL)
				b.StartTimer()

				for _, batch := range batches {
					var err error
					if enc == "json" {
						err = postJSON(ts.URL, batch)
					} else {
						col.Publish(batch...)
						_, err = col.Flush()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				sc.Flush()

				b.StopTimer()
				if got := srv.Tenant(trace.DefaultTenant).Received(); got != total {
					b.Fatalf("server received %d spans, shipped %d", got, total)
				}
				if st := sc.Stats(); st.Live+st.Checkpointed != total {
					b.Fatalf("correlator accounts for %d spans, fed %d", st.Live+st.Checkpointed, total)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "spans/s")
		})
	}
}

// postJSON ships one batch in the JSON wire format, as a client without
// the binary codec does (HTTPCollector always posts binary): the bare span
// array, one POST, no batch id.
func postJSON(baseURL string, spans []*trace.Span) error {
	var body bytes.Buffer
	if err := (&trace.Trace{Spans: spans}).EncodeJSON(&body); err != nil {
		return err
	}
	resp, err := http.Post(baseURL+"/api/spans", trace.ContentTypeJSON, &body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /api/spans: %s", resp.Status)
	}
	return nil
}

// TestStreamAllocBudget is the allocation-regression smoke for the
// streaming hot path: a sustained stream past warmup must stay within a
// checked-in per-span budget. A released span costs an append to its level's
// run and nothing else, so what is left is amortized work — slice growth,
// checkpoint folds, the occasional segment compaction — and the one thing a
// fold keeps: the block it encodes its spans into, 113 B/span for these
// spans, plus their 8-byte references. The budgets sit above that (measured:
// shared 0.07 allocs/span, server 0.01 allocs/span and 171-179 B/span — 68
// before folded history was held encoded, when the spans a fold kept had
// been allocated by whoever decoded them), with headroom for slower boxes.
//
//   - shared is a pipelined stream: pooled interval-tree nodes hold its
//     degraded windows far below one allocation per span — before the pool
//     tree nodes alone were ~1/span in overlapped regions — so a regression
//     there shows up here before it shows up in a profile.
//   - server is what xsp-server runs per tenant: Retain and CorrRetain set,
//     not Isolated (the correlator is the tenant's one span store), spans
//     carrying the Tags and Metrics a profiled model publishes. Both the
//     count and the bytes are pinned: a per-span table entry (one allocation
//     per exec), a header copy per span (~120 B), a second copy of the
//     block or a per-span hash set through a fold fails it.
//   - owned is server with the decode in the loop, as the server runs it:
//     each batch decoded from its binary frame by DecodeBinary, whose store
//     recycles, and fed owned (FeedOwned), so a fold hands the slots of the
//     spans it encodes to the next batches' decodes. What is left per span
//     is the fold's block and references, the decoded batch's entry arenas,
//     blob and pointer slice; a decode that carves new chunks, ~140 B/span
//     of arena, fails it.
func TestStreamAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name          string
		trace         workload.SyntheticSpec
		opts          core.StreamOptions
		allocs, bytes float64 // per-span budgets; zero bytes leaves them unpinned
		owned         bool    // decode each batch from its frame and feed it owned
	}{
		{
			name:   "shared",
			trace:  workload.SyntheticSpec{Spans: 120_000, Streams: 3, Seed: 7},
			opts:   core.StreamOptions{ReorderWindow: 48, Retain: 4_096}.WithMaxWindowSpans(2_048),
			allocs: 0.25,
		},
		{
			name:   "server",
			trace:  payloadTrace(120_000, 7),
			opts:   core.StreamOptions{ReorderWindow: 64, Retain: 10_000, CorrRetain: 100_000},
			allocs: 0.25, bytes: 240,
		},
		{
			name:   "owned",
			trace:  payloadTrace(120_000, 7),
			opts:   core.StreamOptions{ReorderWindow: 64, Retain: 10_000, CorrRetain: 100_000},
			allocs: 0.25, bytes: 236, owned: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const batchSize = 500
			batches := workload.StreamingArrivals(workload.StreamingSpec{
				Trace: tc.trace, BatchSize: batchSize, ReorderSkew: 48, Seed: 7,
			})
			sc := core.NewStreamCorrelator(tc.opts)
			feed := func(i int) { sc.Feed(batches[i]...) }
			if tc.owned {
				// One P from the start: a sync.Pool item put on another P
				// before a GC is out of this P's reach after it, so whether the
				// frame buffer and the encoder's scratch regrow inside the
				// window would be a matter of scheduling (+12 B/span).
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				frames := make([][]byte, len(batches))
				for i, b := range batches {
					frames[i] = trace.AppendBinaryFrameTenant(nil, "", b)
				}
				feed = func(i int) {
					tr, err := trace.DecodeBinary(bytes.NewReader(frames[i]))
					if err != nil {
						t.Fatal(err)
					}
					_ = sc.FeedOwned(0, tr.Spans...)
				}
			}

			// Warm up: let the window chain, the checkpoint ladder, the pool
			// and the span free list reach steady state.
			warm := len(batches) / 3
			for i := range warm {
				feed(i)
			}
			const runs = 60
			if warm+runs > len(batches) {
				t.Fatalf("stream too short: %d batches, need %d", len(batches), warm+runs)
			}

			// One goroutine on one P, like testing.AllocsPerRun, which counts
			// allocations but not their bytes.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := warm; i < warm+runs; i++ {
				feed(i)
			}
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / (runs * batchSize)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs * batchSize)

			if allocs > tc.allocs {
				t.Fatalf("steady-state stream path allocates %.2f allocs/span, budget %v", allocs, tc.allocs)
			}
			// The block a fold keeps is encoded in the history's own buffer, but
			// its tables pass through the codec's pooled scratch, and under -race
			// sync.Pool drops one Put in four: each of the window's 20 folds may
			// have to regrow that scratch, 8 B/span a time (187-243 measured over
			// 30 runs). The bound that holds whatever the pool does is 160 up.
			budget := tc.bytes
			if raceEnabled {
				budget += 160
			}
			if tc.bytes > 0 && bytes > budget {
				t.Fatalf("steady-state stream path allocates %.0f B/span, budget %v", bytes, budget)
			}
			t.Logf("steady-state stream path: %.3f allocs/span, %.0f B/span", allocs, bytes)
		})
	}
}
