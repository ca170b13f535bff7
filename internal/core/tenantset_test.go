package core_test

// Multi-tenant correlation tests: one TenantSet, many tenants, each
// tenant's stream required to equal its own batch oracle — while feeds
// run concurrently across tenants, while one tenant crashes and recovers
// from its own durable directory, and while one tenant is overdriven
// into shedding without touching its neighbor.

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xsp/internal/core"
	"xsp/internal/segio"
	"xsp/internal/segio/faultfs"
	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

// tenantWorkload is one tenant's arrival stream: reordering and
// stragglers on, seeded per tenant so no two tenants feed the same
// batches.
func tenantWorkload(spans, seed int) [][]*trace.Span {
	return workload.StreamingArrivals(workload.StreamingSpec{
		Trace:           workload.SyntheticSpec{Spans: spans, Streams: 2, Seed: int64(seed)},
		BatchSize:       32,
		ReorderSkew:     8,
		StragglerWindow: 24,
		Seed:            int64(seed + 100),
	})
}

// Feeds for distinct tenants run concurrently, and every tenant's post-Flush stream still equals its own batch oracle —
// cross-tenant parallelism must not leak anything between correlators or
// disturb per-tenant arrival order.
func TestTenantSetParallelFeedsMatchBatchOracle(t *testing.T) {
	const tenants = 6
	set := core.NewTenantSet(core.TenantSetOptions{
		Stream: core.StreamOptions{ReorderWindow: 16, Retain: 32},
	})

	loads := make([][][]*trace.Span, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		loads[i] = tenantWorkload(2_000, i+1)
		st, err := set.Stream(fmt.Sprintf("tenant-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(st *core.TenantStream, batches [][]*trace.Span) {
			defer wg.Done()
			// One goroutine per tenant: per-tenant arrival order is the
			// contract; only cross-tenant execution is concurrent.
			for _, b := range batches {
				st.Publish(cloneBatch(b)...)
			}
		}(st, loads[i])
	}
	wg.Wait()

	if got := len(set.Keys()); got != tenants {
		t.Fatalf("set holds %d tenants, want %d", got, tenants)
	}
	for i := 0; i < tenants; i++ {
		key := fmt.Sprintf("tenant-%d", i)
		if !slices.Contains(set.Keys(), key) {
			t.Fatalf("%s missing", key)
		}
		st := streamOf(set, key)
		st.Correlator().Flush()
		assertStreamMatchesBatch(t, st.Correlator(), loads[i])
	}
}

// Each tenant's durable state is its own: a crash in one tenant's store
// mid-stream latches and recovers that tenant alone, the neighbor's WAL
// and ladder never notice, and after reboot both tenants' recovered
// streams equal their batch oracles — under both window shapes, the
// big-tail crash placed inside a run of deferred folds.
func TestTenantSetIndependentCrashRecovery(t *testing.T) {
	for _, shape := range durableShapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			testTenantSetIndependentCrashRecovery(t, shape.opts, shape.load, shape.deferring)
		})
	}
}

func testTenantSetIndependentCrashRecovery(t *testing.T, opts func(core.SegmentStore) core.StreamOptions,
	load func(spans int, seed int64) [][]*trace.Span, deferring bool) {
	fses := map[string]*faultfs.FS{
		"crashy": faultfs.New(),
		"steady": faultfs.New(),
	}
	openStore := func(fses map[string]*faultfs.FS) func(string) (*segio.Store, *segio.Recovery, error) {
		return func(tenant string) (*segio.Store, *segio.Recovery, error) {
			fs, ok := fses[tenant]
			if !ok {
				return nil, nil, fmt.Errorf("unexpected tenant %q", tenant)
			}
			return segio.Open(fs, segio.Options{})
		}
	}
	newSet := func(fses map[string]*faultfs.FS) *core.TenantSet {
		return core.NewTenantSet(core.TenantSetOptions{
			Stream:    opts(nil),
			OpenStore: openStore(fses),
		})
	}
	set := newSet(fses)

	crashyLoad := load(2_000, 1)
	steadyLoad := load(2_000, 2)

	crashy, err := set.Stream("crashy")
	if err != nil {
		t.Fatal(err)
	}
	steady, err := set.Stream("steady")
	if err != nil {
		t.Fatal(err)
	}
	if crashy.Err() != nil || steady.Err() != nil {
		t.Fatalf("fresh stores errored: %v / %v", crashy.Err(), steady.Err())
	}

	// Pick the crash on a throwaway store: the first batch past the middle
	// of the crashy load — for a deferring shape, the first one that also
	// finds at least two segment files written since the last rotation.
	// One operation into that batch the WAL append is written, not synced.
	crashAfter := 0
	{
		dry := faultfs.New()
		st, rec, err := segio.Open(dry, segio.Options{})
		if err != nil {
			t.Fatal(err)
		}
		log := newStoreLog(st)
		sc, err := core.RecoverStream(opts(log), rec)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range crashyLoad { // feedDurable's cadence, stopped early
			if i >= len(crashyLoad)/2 && (!deferring || log.runWrites >= 2) {
				crashAfter = dry.Ops() + 1
				break
			}
			if err := sc.FeedLogged(uint64(i+1), cloneBatch(b)...); err != nil {
				t.Fatalf("dry run refused batch %d: %v", i+1, err)
			}
			if (i+1)%4 == 0 {
				sc.Checkpoint()
			}
		}
		if crashAfter == 0 {
			t.Fatal("the crashy load never stood two segment writes past a rotation")
		}
	}
	fses["crashy"].Arm(faultfs.Plan{CrashAfter: crashAfter, Mode: faultfs.ModeTorn})
	crashyAcked, crashed := feedDurable(crashy.Correlator(), crashyLoad)
	if !crashed || crashyAcked == 0 || crashyAcked == len(crashyLoad) {
		t.Fatalf("crashy tenant: acked %d/%d, crashed=%v — want a mid-stream crash",
			crashyAcked, len(crashyLoad), crashed)
	}
	// The steady tenant feeds its entire stream after the neighbor died.
	if acked, crashed := feedDurable(steady.Correlator(), steadyLoad); crashed || acked != len(steadyLoad) {
		t.Fatalf("steady tenant disturbed by neighbor crash: acked %d/%d, crashed=%v (%v)",
			acked, len(steadyLoad), crashed, steady.Correlator().DurabilityErr())
	}

	// Reboot: a fresh set over each tenant's durable view.
	rebooted := map[string]*faultfs.FS{
		"crashy": fses["crashy"].Recovered(),
		"steady": fses["steady"].Recovered(),
	}
	set2 := newSet(rebooted)
	crashy2, err := set2.Stream("crashy")
	if err != nil {
		t.Fatal(err)
	}
	steady2, err := set2.Stream("steady")
	if err != nil {
		t.Fatal(err)
	}
	if err := crashy2.Err(); err != nil {
		t.Fatalf("crashy tenant did not recover: %v", err)
	}
	if err := steady2.Err(); err != nil {
		t.Fatalf("steady tenant did not recover: %v", err)
	}
	// The steady tenant's recovery is complete and untouched by the
	// neighbor's crash: nothing quarantined, its acked batches all in the
	// dedup window.
	if rec := steady2.Recovery(); len(rec.Quarantined) != 0 || len(rec.DedupIDs) != len(steadyLoad) {
		t.Fatalf("steady recovery: quarantined %v, %d dedup ids (want %d)",
			rec.Quarantined, len(rec.DedupIDs), len(steadyLoad))
	}
	// The crashy tenant's recovered window covers exactly what it acked.
	if rec := crashy2.Recovery(); len(rec.DedupIDs) != crashyAcked {
		t.Fatalf("crashy recovery: %d dedup ids, acked %d", len(rec.DedupIDs), crashyAcked)
	}

	// What a tenant keeps of its recovery for the process's life is the
	// report, not the content: segments and batch records to count, and no
	// span, decoded or encoded, behind any of them.
	for name, st := range map[string]*core.TenantStream{"crashy": crashy2, "steady": steady2} {
		rec := st.Recovery()
		if len(rec.Segments) == 0 || rec.Snapshot != nil {
			t.Fatalf("%s recovery: %d segments to count (want some), snapshot kept: %v", name, len(rec.Segments), rec.Snapshot != nil)
		}
		for _, seg := range rec.Segments {
			if seg.ID == 0 || seg.File != nil {
				t.Fatalf("%s recovery: segment %d still holds its file", name, seg.ID)
			}
		}
		for _, b := range rec.Batches {
			if b.Spans != nil || b.Owned != nil {
				t.Fatalf("%s recovery: batch record %d still holds %d spans", name, b.BatchID, len(b.Spans))
			}
		}
	}

	// The client refeeds everything the crashed tenant never acked, both
	// streams finish, and each equals its own oracle.
	if acked, crashed := feedDurable2(crashy2.Correlator(), crashyLoad, crashyAcked); crashed || acked != len(crashyLoad)-crashyAcked {
		t.Fatalf("refeed after recovery: acked %d, crashed=%v (%v)",
			acked, crashed, crashy2.Correlator().DurabilityErr())
	}
	crashy2.Correlator().Flush()
	steady2.Correlator().Flush()
	assertStreamMatchesBatch(t, crashy2.Correlator(), crashyLoad)
	assertStreamMatchesBatch(t, steady2.Correlator(), steadyLoad)
}

// feedDurable2 refeeds the batches from index from on, continuing the
// original 1-based batch-id numbering — the client's retry loop after a
// server restart.
func feedDurable2(sc *core.StreamCorrelator, batches [][]*trace.Span, from int) (acked int, crashed bool) {
	for i := from; i < len(batches); i++ {
		if err := sc.FeedLogged(uint64(i+1), cloneBatch(batches[i])...); err != nil {
			return acked, true
		}
		acked++
		if sc.DurabilityErr() != nil {
			return acked, true
		}
	}
	return acked, false
}

// End-to-end overload isolation through the HTTP server: concurrent
// publishers overdrive one tenant past its own in-flight span budget
// against a slowed tap and get 429s, while a quiet tenant's posts keep
// landing first-try — the per-tenant half of the admission contract, wired
// the way xsp-server wires a RAM tenant (SetTenantInit attaching one
// TenantStream per tenant behind an async tap). Nothing here folds or
// flushes a correlator: the noisy tenant is admitted again because its tap
// drains by itself, and every span it published lands exactly once.
func TestTenantOverloadIsolation(t *testing.T) {
	const (
		publishers = 8
		batches    = 24 // per publisher
		batchSpans = 64
		spanBudget = 256 // per-tenant in-flight span budget
	)
	set := core.NewTenantSet(core.TenantSetOptions{
		Stream: core.StreamOptions{Isolated: true, ReorderWindow: 64},
	})
	srv := trace.NewServer()
	srv.SetAdmission(trace.AdmissionPolicy{MaxInflightSpans: spanBudget, RetryAfter: time.Millisecond})
	var taps []*trace.AsyncTap
	srv.SetTenantInit(func(tn *trace.ServerTenant) {
		st, err := set.Stream(tn.Key())
		if err != nil {
			t.Errorf("tenant %s: %v", tn.Key(), err)
			return
		}
		taps = append(taps, tn.SetTapAsync(&slowCollector{dst: st, delay: 2 * time.Millisecond},
			trace.TapOptions{Queue: spanBudget}))
	})
	srv.Tenant("noisy")
	srv.Tenant("quiet")
	defer func() {
		for _, tap := range taps {
			tap.Close()
		}
	}()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The noisy publishers hammer with no client pacing beyond the server's
	// 1ms Retry-After, and retry every batch until it is accepted.
	var nextID atomic.Uint64
	var aborted atomic.Bool
	deadline := time.Now().Add(time.Minute)
	var wg sync.WaitGroup
	for range publishers {
		col := trace.NewHTTPCollector(ts.URL)
		if err := col.SetTenant("noisy"); err != nil {
			t.Fatal(err)
		}
		col.SetRetryPolicy(trace.RetryPolicy{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range batches {
				batch := make([]*trace.Span, batchSpans)
				for i := range batch {
					batch[i] = span(nextID.Add(1))
				}
				retryUntilShipped(t, col, &aborted, deadline, batch)
			}
		}()
	}

	noisy := srv.Tenant("noisy")
	for noisy.OverloadStats().ShedRequests == 0 {
		if time.Now().After(deadline) {
			t.Fatal("noisy tenant was never shed despite exceeding its span budget")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// The quiet tenant lands first-try, repeatedly, while its neighbor is
	// overdriven.
	quiet := trace.NewHTTPCollector(ts.URL)
	if err := quiet.SetTenant("quiet"); err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		quiet.Publish(span(1_000_000 + uint64(i)))
		if n, err := quiet.Flush(); err != nil || n != 1 {
			t.Fatalf("quiet tenant post %d = %d, %v — not admitted first try while neighbor shed", i, n, err)
		}
	}
	if got := srv.Tenant("quiet").OverloadStats().ShedRequests; got != 0 {
		t.Fatalf("quiet tenant shed %d times", got)
	}

	// Recovery with no help: every noisy batch is admitted in the end.
	wg.Wait()
	if aborted.Load() {
		t.Fatal("a noisy publisher stayed refused — shedding did not end")
	}
	if got, want := noisy.Received(), publishers*batches*batchSpans; got != want {
		t.Fatalf("noisy tenant accepted %d spans, its publishers sent %d", got, want)
	}
	if got := srv.Tenant("quiet").Received(); got != 5 {
		t.Fatalf("quiet tenant accepted %d spans, want 5", got)
	}
}

func span(id uint64) *trace.Span {
	return &trace.Span{ID: id, Level: trace.LevelKernel, Name: "k",
		Begin: vclock.Time(id), End: vclock.Time(id + 1)}
}

// syncBarrierFS is a segio.FS whose WAL append handles, once armed, block in
// their first Sync until every one of the expected callers is inside Sync
// with them: it passes only if that many syncs can be in flight at once.
type syncBarrierFS struct {
	segio.FS
	armed   *bool // set before the concurrent syncs start, never after
	arrived *sync.WaitGroup
}

func (fs syncBarrierFS) OpenAppend(name string) (segio.File, error) {
	f, err := fs.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &syncBarrierFile{File: f, fs: fs}, nil
}

type syncBarrierFile struct {
	segio.File
	fs   syncBarrierFS
	once sync.Once
}

func (f *syncBarrierFile) Sync() error {
	if *f.fs.armed {
		f.once.Do(func() {
			f.fs.arrived.Done()
			f.fs.arrived.Wait()
		})
	}
	return f.File.Sync()
}

// Distinct durable tenants share nothing, their WAL fsyncs included: more
// tenants than cores must all be able to sit in Sync at once. (A per-process
// pool of GOMAXPROCS feed slots, held across the fsync, deadlocks here.)
func TestDurableTenantsSyncConcurrently(t *testing.T) {
	tenants := 2*runtime.GOMAXPROCS(0) + 1
	armed := false
	var arrived sync.WaitGroup
	arrived.Add(tenants)
	streams := make([]*core.StreamCorrelator, tenants)
	for i := range streams {
		fs := syncBarrierFS{FS: faultfs.New(), armed: &armed, arrived: &arrived}
		streams[i], _, _ = core.OpenStream(fmt.Sprintf("tenant-%d", i), core.StreamOptions{},
			func() (*segio.Store, *segio.Recovery, error) { return segio.Open(fs, segio.Options{}) })
		if err := streams[i].DurabilityErr(); err != nil {
			t.Fatal(err)
		}
	}
	armed = true
	errs := make(chan error, tenants)
	for i, sc := range streams {
		go func() {
			errs <- sc.FeedLogged(1, &trace.Span{ID: uint64(i + 1), Level: trace.LevelModel, Begin: 1, End: 2})
		}()
	}
	deadline := time.After(10 * time.Second)
	for range streams {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("batch not acked on a healthy disk: %v", err)
			}
		case <-deadline:
			t.Fatalf("%d durable tenants cannot all be inside their WAL fsync at once", tenants)
		}
	}
}

// A tenant whose store will not open is not refused: it feeds RAM-only and
// says why, through the one latch a later store error would set.
func TestOpenTenantStreamDegradesToRAM(t *testing.T) {
	boom := errors.New("disk on fire")
	sc, store, rec := core.OpenStream("acme", core.StreamOptions{},
		func() (*segio.Store, *segio.Recovery, error) { return nil, nil, boom })
	if err := sc.DurabilityErr(); !errors.Is(err, boom) || store != nil || rec != nil {
		t.Fatalf("latched %v, store = %v, rec = %v; want the open error and neither", err, store, rec)
	}
	if err := sc.FeedLogged(1, &trace.Span{ID: 1, Level: trace.LevelModel, Begin: 1, End: 5}); err != nil {
		t.Fatalf("degraded tenant refused a batch: %v", err)
	}
	sc.Feed(&trace.Span{ID: 2, Level: trace.LevelLayer, Begin: 2, End: 3})
	sc.Flush()
	got := sc.Trace()
	if len(got.Spans) != 2 || got.SpansByID()[2].ParentID != 1 {
		t.Fatalf("degraded tenant holds %d spans, layer parent %d; want 2 spans, parent 1", len(got.Spans), got.SpansByID()[2].ParentID)
	}
}

// handleFS is a segio.FS that counts the file handles open on it and, while
// failSeg is set, fails the next segment file created — noting whether a WAL
// file was created since failSeg was set.
type handleFS struct {
	segio.FS
	open          int
	failSeg       bool
	walBeforeFail bool
}

var errSegWrite = errors.New("segment write refused")

func (f *handleFS) Create(name string) (segio.File, error) {
	if f.failSeg && strings.HasPrefix(name, "wal-") {
		f.walBeforeFail = true
	}
	if f.failSeg && strings.HasPrefix(name, "seg-") {
		f.failSeg = false
		return nil, errSegWrite
	}
	return f.track(f.FS.Create(name))
}

func (f *handleFS) OpenAppend(name string) (segio.File, error) { return f.track(f.FS.OpenAppend(name)) }

func (f *handleFS) track(file segio.File, err error) (segio.File, error) {
	if err != nil {
		return nil, err
	}
	f.open++
	return &countedFile{File: file, fs: f}, nil
}

type countedFile struct {
	segio.File
	fs     *handleFS
	closed bool
}

func (c *countedFile) Close() error {
	if !c.closed {
		c.closed = true
		c.fs.open--
	}
	return c.File.Close()
}

// A recovery that fails on a segment write degrades the tenant to RAM-only
// and leaves no handle open: the store it opened is closed, not dropped
// holding a WAL. Both of recovery's write phases are failed: the files its
// replay folded, written before its WAL rotation, and the remainder a
// replay-time reopen left, written after it — the store then holds the new
// WAL the rotation opened.
func TestOpenTenantStreamClosesStoreOnLateRecoveryFailure(t *testing.T) {
	windowed := core.StreamOptions{ReorderWindow: 16}
	retained := core.StreamOptions{ReorderWindow: 16, Retain: 32}
	for _, tc := range []struct {
		name string
		// run feeds the stream's first lives through open, each closing
		// its store, and returns the options the failing recovery runs
		// under.
		run func(feed func(opts core.StreamOptions, batches [][]*trace.Span, checkpoint bool))
		// afterRotation: the failing write comes after the recovery's WAL
		// rotation.
		afterRotation bool
	}{
		{"replay fold", func(feed func(core.StreamOptions, [][]*trace.Span, bool)) {
			// Nothing folds; reopened with a retain horizon, the replay does.
			feed(windowed, tenantWorkload(4_000, 7), false)
		}, false},
		{"replay reopen", func(feed func(core.StreamOptions, [][]*trace.Span, bool)) {
			// The history folds into files, and the withheld window arrives
			// in a life without a retain horizon, which repairs nothing at
			// feed time: reopened with one, the replay repairs it, taking
			// spans back out of a file whose remainder the recovery owes.
			batches := tenantWorkload(4_000, 7)
			feed(retained, batches[:len(batches)-1], true)
			feed(windowed, batches[len(batches)-1:], false)
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := &handleFS{FS: faultfs.New()}
			open := func() (*segio.Store, *segio.Recovery, error) { return segio.Open(fs, segio.Options{}) }
			fed := 0
			tc.run(func(opts core.StreamOptions, batches [][]*trace.Span, checkpoint bool) {
				sc, store, _ := core.OpenStream("acme", opts, open)
				for _, b := range batches {
					fed++
					if err := sc.FeedLogged(uint64(fed), cloneBatch(b)...); err != nil {
						t.Fatal(err)
					}
				}
				if checkpoint {
					sc.Checkpoint()
				}
				if err := sc.DurabilityErr(); err != nil {
					t.Fatal(err)
				}
				sc.Close()
				if err := store.Close(); err != nil || fs.open != 0 {
					t.Fatalf("closing a store: %v, %d handles left open", err, fs.open)
				}
			})

			fs.failSeg = true
			sc, store, _ := core.OpenStream("acme", retained, open)
			err := sc.DurabilityErr()
			if fs.failSeg {
				t.Fatal("recovery wrote no segment file: the failure was never reached")
			}
			if fs.walBeforeFail != tc.afterRotation {
				t.Fatalf("the failed segment write came after a WAL rotation: %v, want %v", fs.walBeforeFail, tc.afterRotation)
			}
			if !errors.Is(err, errSegWrite) || store != nil {
				t.Fatalf("err = %v, store = %v; want the segment write's error and no store", err, store)
			}
			if fs.open != 0 {
				t.Fatalf("the failed recovery left %d file handles open", fs.open)
			}
		})
	}
}

// streamOf returns the stream of a tenant key the set has already created.
func streamOf(set *core.TenantSet, key string) *core.TenantStream {
	st, err := set.Stream(key)
	if err != nil {
		panic(err)
	}
	return st
}
