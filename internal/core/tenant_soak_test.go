package core_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xsp/internal/core"
	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

// TestMultiTenantSoak is the tenancy tentpole's soak: several tenants,
// each overdriven by its own publisher pool against per-tenant admission
// budgets, all sharing one server and one TenantSet. Asserts
// the three properties the sharding must not break: (a) every tenant's
// live state stays inside its own configured ceiling, (b) every tenant
// ends exactly-once — its span set is precisely what its publishers
// generated, nothing leaked in from a neighbor, and its stream equals the
// batch oracle — and (c) every tenant's in-flight state drains after the
// burst. Nothing folds or flushes a correlator while publishers run: each
// tenant's live spans stay under a ceiling that does not grow with the
// stream (run it at two XSP_SOAK_SPANS sizes to see it hold), held by the
// Retain fold cadence, window chaining and the CorrRetain horizon alone.
func TestMultiTenantSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: skipped in -short")
	}
	const (
		tenants    = 4
		publishers = 10 // per tenant
		batchSpans = 64
		tapQueue   = 256
		spanBudget = 512  // per-tenant in-flight span budget
		liveBound  = 3072 // per-tenant live-span ceiling, whatever the stream's length
	)
	perTenant := soakSpans(t) / 20

	set := core.NewTenantSet(core.TenantSetOptions{
		Stream: core.StreamOptions{
			Isolated:      true,
			ReorderWindow: 512,
			Retain:        1024,
			CorrRetain:    4096,
		},
	})
	srv := trace.NewServer()
	srv.SetAdmission(trace.AdmissionPolicy{
		MaxInflightBytes: 8 << 20,
		MaxInflightSpans: spanBudget,
		RetryAfter:       time.Millisecond,
	})
	// Tenants materialize before traffic starts, so the taps map is
	// read-only while publishers run. The throttled consumer is what makes
	// each tenant's overdrive genuinely outrun its correlator.
	taps := make(map[string]*trace.AsyncTap)
	srv.SetTenantInit(func(tn *trace.ServerTenant) {
		st, err := set.Stream(tn.Key())
		if err != nil {
			t.Errorf("tenant %s: %v", tn.Key(), err)
			return
		}
		taps[tn.Key()] = tn.SetTapAsync(&slowCollector{dst: st, delay: 2 * time.Millisecond},
			trace.TapOptions{Queue: tapQueue})
	})
	keys := make([]string, tenants)
	for i := range keys {
		keys[i] = fmt.Sprintf("soak-%d", i)
		srv.Tenant(keys[i])
	}
	defer func() {
		for _, tap := range taps {
			tap.Close()
		}
	}()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The monitor only samples the per-tenant bound the soak asserts.
	maxLive := make([]int, tenants)
	var sampleMu sync.Mutex
	sample := func() {
		sampleMu.Lock()
		defer sampleMu.Unlock()
		for i, key := range keys {
			maxLive[i] = max(maxLive[i], streamOf(set, key).Correlator().Load().LiveSpans)
		}
	}
	stop := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				sample()
			}
		}
	}()

	var wg sync.WaitGroup
	var aborted atomic.Bool
	deadline := time.Now().Add(2 * time.Minute)
	generated := make([]int, tenants)
	published := make([]map[uint64]bool, tenants)
	for ti := range keys {
		published[ti] = make(map[uint64]bool, perTenant)
		wg.Add(1)
		go func(ti int, key string) {
			defer wg.Done()
			cols := make([]*trace.HTTPCollector, publishers)
			for p := range cols {
				cols[p] = trace.NewHTTPCollector(ts.URL)
				if err := cols[p].SetTenant(key); err != nil {
					t.Errorf("tenant %s: %v", key, err)
					return
				}
				cols[p].SetRetryPolicy(trace.RetryPolicy{
					BaseDelay: 200 * time.Microsecond,
					MaxDelay:  5 * time.Millisecond,
					// MaxAttempts zero: never drop — exactly-once per tenant.
				})
			}
			var mu sync.Mutex
			generated[ti] = workload.PublishOverdriven(workload.OverloadSpec{
				Publishers: publishers,
				SpansEach:  perTenant / publishers,
				BatchSpans: batchSpans,
				Seed:       int64(100 + ti),
			}, func(p int, batch []*trace.Span) {
				if aborted.Load() {
					return
				}
				mu.Lock()
				for _, s := range batch {
					published[ti][s.ID] = true
				}
				mu.Unlock()
				retryUntilShipped(t, cols[p], &aborted, deadline, batch)
			})
		}(ti, keys[ti])
	}
	wg.Wait()
	close(stop)
	monWG.Wait()
	if aborted.Load() {
		t.Fatal("soak aborted on a wedged publisher")
	}

	// Drain: each tenant's tap barrier, then its final Flush.
	for _, key := range keys {
		taps[key].Flush()
		streamOf(set, key).Correlator().Flush()
	}

	var totalShed int64
	for ti, key := range keys {
		tn := srv.Tenant(key)
		sc := streamOf(set, key).Correlator()

		// (a) This tenant's structures held this tenant's bounds.
		t.Logf("tenant %s: live spans peaked at %d of %d fed", key, maxLive[ti], generated[ti])
		if maxLive[ti] > liveBound {
			t.Errorf("tenant %s: live spans peaked at %d of %d fed, ceiling is %d", key, maxLive[ti], generated[ti], liveBound)
		}
		if st := taps[key].Stats(); st.MaxDepth > tapQueue {
			t.Errorf("tenant %s: tap peaked at %d (bound %d)", key, st.MaxDepth, tapQueue)
		}
		totalShed += tn.OverloadStats().ShedRequests

		// (b) Exactly-once over exactly this tenant's spans: the count, the
		// span set (nothing from a neighboring tenant's generator), and the
		// stream-vs-batch parent assignment all match.
		if got := tn.Received(); got != generated[ti] {
			t.Errorf("tenant %s accepted %d spans, generated %d", key, got, generated[ti])
		}
		accepted := tn.View().Trace()
		if len(accepted.Spans) != generated[ti] {
			t.Errorf("tenant %s store holds %d spans, want %d", key, len(accepted.Spans), generated[ti])
		}
		seen := make(map[uint64]bool, len(accepted.Spans))
		for _, s := range accepted.Spans {
			if seen[s.ID] {
				t.Fatalf("tenant %s span %d stored twice — a retried batch re-published", key, s.ID)
			}
			seen[s.ID] = true
			if !published[ti][s.ID] {
				t.Fatalf("tenant %s holds span %d it never published — cross-tenant leak", key, s.ID)
			}
		}
		assertStreamMatchesBatch(t, sc, [][]*trace.Span{accepted.Spans})

		// (c) Post-burst recovery, per tenant: in-flight accounting drained.
		if ost := tn.OverloadStats(); ost.InflightSpans != 0 || ost.TapDepth != 0 {
			t.Errorf("tenant %s post-burst in-flight state not drained: %+v", key, ost)
		}
	}
	if totalShed == 0 {
		t.Error("overdriven run never shed a request — the soak is not overloading")
	}
	if ost := srv.OverloadStats(); ost.ShedRequests != totalShed {
		t.Errorf("global shed counter %d, per-tenant sum %d", ost.ShedRequests, totalShed)
	}
}

// BenchmarkIngestToCorrelateParallel is the tenancy scaling benchmark:
// each goroutine is one tenant streaming its own spans through the full
// wire path (collector binary encode → POST → decode → per-tenant publish
// → tap → that tenant's stream correlator) behind a single server. With
// -cpu=1,2,4... the spans/s curve is the sharding's scorecard: tenants
// share nothing on the hot path but the listener, so
// throughput should scale with cores. One op is a
// 512-span batch; each goroutine rebases its private stream's IDs and
// virtual times forward whenever it wraps, so every tenant's stream stays
// monotone and dedup-clean for arbitrarily large b.N. Run with -benchmem.
func BenchmarkIngestToCorrelateParallel(b *testing.B) {
	const n = 4_096
	const batchSize = 512
	proto := workload.StreamingArrivals(workload.StreamingSpec{
		Trace:     workload.SyntheticSpec{Spans: n, Seed: 42},
		BatchSize: batchSize, ReorderSkew: 48, Seed: 42,
	})
	var maxID uint64
	var maxT vclock.Time
	for _, batch := range proto {
		for _, s := range batch {
			maxID = max(maxID, s.ID, s.CorrelationID)
			maxT = max(maxT, s.End)
		}
	}

	set := core.NewTenantSet(core.TenantSetOptions{
		Stream: core.StreamOptions{ReorderWindow: 48, Retain: 4_096},
	})
	srv := trace.NewServer()
	srv.SetTenantInit(func(tn *trace.ServerTenant) {
		st, err := set.Stream(tn.Key())
		if err != nil {
			b.Errorf("tenant %s: %v", tn.Key(), err)
			return
		}
		tn.SetTap(st) // synchronous: the op includes the correlator's Feed
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// One pooled connection per tenant: the default transport keeps two
	// idle conns per host, which would serialize every goroutine past the
	// second on TCP handshakes.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	defer client.CloseIdleConnections()

	var nextTenant atomic.Uint64
	var shipped atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("bench-%d", nextTenant.Add(1))
		col := trace.NewHTTPCollector(ts.URL)
		col.SetHTTPClient(client)
		if err := col.SetTenant(key); err != nil {
			b.Error(err)
			return
		}
		// A private copy of the stream this goroutine can rebase in place.
		stream := make([][]*trace.Span, len(proto))
		for i, batch := range proto {
			stream[i] = cloneBatch(batch)
		}
		cursor := 0
		for pb.Next() {
			if cursor == len(stream) {
				cursor = 0
				for _, batch := range stream {
					for _, s := range batch {
						s.ID += maxID
						if s.CorrelationID != 0 {
							s.CorrelationID += maxID
						}
						if s.ParentID != 0 {
							s.ParentID += maxID
						}
						s.Begin += maxT
						s.End += maxT
					}
				}
			}
			col.Publish(stream[cursor]...)
			if _, err := col.Flush(); err != nil {
				b.Error(err)
				return
			}
			shipped.Add(int64(len(stream[cursor])))
			cursor++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(shipped.Load())/b.Elapsed().Seconds(), "spans/s")
	total := 0
	for _, key := range set.Keys() {
		sc := streamOf(set, key).Correlator()
		sc.Flush()
		stats := sc.Stats()
		total += stats.Live + stats.Checkpointed
	}
	if total != int(shipped.Load()) {
		b.Fatalf("correlators account for %d spans, shipped %d", total, shipped.Load())
	}
}
