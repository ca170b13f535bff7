package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"xsp/internal/core"
	"xsp/internal/segio"
	"xsp/internal/segio/faultfs"
	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

// FuzzStreamVsBatch is the streaming correlator's equivalence fuzz: random
// span shapes (span count, pipelined stream count, device-only capture) ×
// arrival regimes (batch size, bounded skew, straggler windows) × lifecycle
// knobs (reorder window, checkpoint retention, degraded-window size bound)
// must all land, after Flush, on exactly the batch Correlate
// assignment. The seed corpus is the property-test matrix: each entry is
// one shape×arrival combination TestStreamCorrelatorMatchesBatch pins.
// CorrRetain is deliberately not fuzzed — its horizon trades exactness for
// bounded memory by contract (see TestStreamCorrelatorCorrRetentionHorizon
// for its documented behavior).
//
// The durable dimension backs the correlator with an in-memory segio
// store (FeedLogged ack barrier, checkpoint ladder spilled to segment
// files) and, at a fuzz-chosen batch index, simulates a process restart:
// close the store, reopen the surviving files, RecoverStream, and keep
// feeding. Equivalence with the batch oracle must hold through the
// restart — recovery is part of the correlator's exactness contract, not
// a best-effort path.
//
// The tenant dimension (tenants >= 2) runs the same knobs through a
// TenantSet instead of a bare correlator: each tenant gets its own
// workload, the tenants' batches interleave round-robin, and every
// tenant's stream must equal its own batch oracle — with wireBinary
// round-tripping tenant-tagged v2 frames and a durable restart tearing
// down and recovering the whole set mid-interleave.
//
// The recycled dimension (tenants%4 == 1: the one tenant of a server) feeds
// the stream as xsp-server's ingest does: each batch encoded by
// AppendSpanBlock into a frame, decoded by DecodeBinary — whose store takes
// the slots earlier folds gave back — just before it is fed, and fed owned
// (FeedOwned), so every fold recycles what it encodes. Under -race a freed
// slot holds a poison pattern until a decode takes it, so a holder that
// outlives its fold fails the oracle here. wireBinary is moot in it.
//
// Every input runs once per corrRemaps rewrite of its correlation ids — as
// generated, on one slot of any small table, and random 64-bit — so the same
// stream drives the correlation tables' dense, spill and growth paths.
func FuzzStreamVsBatch(f *testing.F) {
	// spans, streams, dropLaunches, batchSize, skew, window, stragglerWin, maxWindow, retain, seed, durable, restartAt, wireBinary, tenants
	f.Add(uint16(2_000), uint8(1), false, uint16(128), uint16(0), uint16(0), uint16(0), int16(0), uint16(0), int64(1), false, uint16(0), false, uint8(0))
	f.Add(uint16(2_000), uint8(3), false, uint16(128), uint16(0), uint16(0), uint16(0), int16(0), uint16(0), int64(2), false, uint16(0), false, uint8(0))
	f.Add(uint16(2_000), uint8(1), true, uint16(128), uint16(0), uint16(0), uint16(0), int16(0), uint16(0), int64(3), false, uint16(0), false, uint8(0))
	f.Add(uint16(2_000), uint8(1), false, uint16(128), uint16(48), uint16(48), uint16(0), int16(0), uint16(0), int64(4), false, uint16(0), false, uint8(0))
	f.Add(uint16(2_000), uint8(3), false, uint16(64), uint16(64), uint16(8), uint16(0), int16(0), uint16(0), int64(5), false, uint16(0), false, uint8(0))
	f.Add(uint16(2_000), uint8(1), true, uint16(128), uint16(64), uint16(8), uint16(0), int16(0), uint16(0), int64(6), false, uint16(0), false, uint8(0))
	f.Add(uint16(3_000), uint8(1), false, uint16(256), uint16(0), uint16(0), uint16(512), int16(0), uint16(0), int64(7), false, uint16(0), false, uint8(0))
	f.Add(uint16(3_000), uint8(3), false, uint16(256), uint16(0), uint16(0), uint16(512), int16(96), uint16(0), int64(8), false, uint16(0), false, uint8(0))
	f.Add(uint16(3_000), uint8(3), false, uint16(256), uint16(32), uint16(32), uint16(0), int16(64), uint16(512), int64(9), false, uint16(0), false, uint8(0))
	f.Add(uint16(3_000), uint8(1), true, uint16(256), uint16(32), uint16(32), uint16(256), int16(0), uint16(256), int64(10), false, uint16(0), false, uint8(0))
	// Durable seeds: the crash-matrix shape (folds + stragglers +
	// reopens), a restart before the first batch, and a restart deep in
	// the stream after many folds.
	f.Add(uint16(3_000), uint8(2), false, uint16(32), uint16(8), uint16(16), uint16(24), int16(0), uint16(32), int64(7), true, uint16(40), false, uint8(0))
	f.Add(uint16(2_000), uint8(3), false, uint16(64), uint16(64), uint16(8), uint16(0), int16(0), uint16(64), int64(5), true, uint16(0), false, uint8(0))
	f.Add(uint16(3_000), uint8(1), true, uint16(256), uint16(32), uint16(32), uint16(256), int16(0), uint16(256), int64(10), true, uint16(60_000), false, uint8(0))
	// Binary-wire seeds: every batch round-trips through the span frame
	// codec before feeding — the HTTP binary ingest path — including one
	// with a mid-stream durable restart.
	f.Add(uint16(2_000), uint8(3), false, uint16(64), uint16(64), uint16(8), uint16(0), int16(0), uint16(0), int64(5), false, uint16(0), true, uint8(0))
	f.Add(uint16(3_000), uint8(2), false, uint16(32), uint16(8), uint16(16), uint16(24), int16(0), uint16(32), int64(7), true, uint16(40), true, uint8(0))
	// Tenant-interleave seeds: RAM-only, durable with a whole-set restart
	// mid-interleave, and tenant-tagged binary frames.
	f.Add(uint16(2_000), uint8(3), false, uint16(64), uint16(64), uint16(8), uint16(0), int16(0), uint16(0), int64(5), false, uint16(0), false, uint8(3))
	f.Add(uint16(2_000), uint8(2), false, uint16(32), uint16(8), uint16(16), uint16(24), int16(0), uint16(32), int64(7), true, uint16(40), false, uint8(2))
	f.Add(uint16(2_000), uint8(3), false, uint16(64), uint16(64), uint16(8), uint16(0), int16(0), uint16(64), int64(5), true, uint16(30), true, uint8(3))
	// Session-shape seeds: what Session and Application correlate with — the
	// whole trace as one canonically ordered batch (1000 spans fit one
	// 1023-span batch), a zero window, then Flush — on one and three
	// streams, with and without launch spans.
	f.Add(uint16(1_000), uint8(1), false, uint16(1_023), uint16(0), uint16(0), uint16(0), int16(0), uint16(0), int64(11), false, uint16(0), false, uint8(0))
	f.Add(uint16(1_000), uint8(3), false, uint16(1_023), uint16(0), uint16(0), uint16(0), int16(0), uint16(0), int64(12), false, uint16(0), false, uint8(0))
	f.Add(uint16(1_000), uint8(1), true, uint16(1_023), uint16(0), uint16(0), uint16(0), int16(0), uint16(0), int64(13), false, uint16(0), false, uint8(0))
	f.Add(uint16(1_000), uint8(3), true, uint16(1_023), uint16(0), uint16(0), uint16(0), int16(0), uint16(0), int64(14), false, uint16(0), false, uint8(0))
	// Deep-merge seeds: 8-span batches shuffled over a skew as wide as the
	// window, so a batch's head sorts 5 (one stream) to 17 (three) batches
	// before the reorder buffer's tail and the merge reaches that deep; RAM,
	// and durable with folds and a restart.
	f.Add(uint16(2_000), uint8(1), false, uint16(8), uint16(511), uint16(511), uint16(0), int16(0), uint16(0), int64(15), false, uint16(0), false, uint8(0))
	f.Add(uint16(3_000), uint8(3), false, uint16(8), uint16(511), uint16(511), uint16(0), int16(0), uint16(0), int64(15), false, uint16(0), false, uint8(0))
	f.Add(uint16(3_000), uint8(3), false, uint16(8), uint16(511), uint16(511), uint16(0), int16(0), uint16(256), int64(15), true, uint16(100), false, uint8(0))
	// Recycled seeds: the server's owned feed, RAM with folds and stragglers,
	// durable with a restart mid-stream, and durable with windowed reopens
	// before and after one.
	f.Add(uint16(3_000), uint8(3), false, uint16(64), uint16(64), uint16(8), uint16(24), int16(0), uint16(64), int64(5), false, uint16(0), false, uint8(1))
	f.Add(uint16(3_000), uint8(2), false, uint16(32), uint16(8), uint16(16), uint16(24), int16(0), uint16(32), int64(7), true, uint16(40), false, uint8(1))
	f.Add(uint16(4_096), uint8(3), false, uint16(16), uint16(64), uint16(8), uint16(300), int16(24), uint16(16), int64(4), true, uint16(195), false, uint8(1))

	f.Fuzz(func(t *testing.T, spans uint16, streams uint8, dropLaunches bool,
		batchSize, skew, window uint16, stragglerWin uint16, maxWindow int16, retain uint16, seed int64,
		durable bool, restartAt uint16, wireBinary bool, tenants uint8) {
		n := int(spans)
		if n < 16 {
			n = 16
		}
		if n > 4_096 {
			n = 4_096
		}
		for _, remap := range corrRemaps(seed) {
			t.Logf("correlation ids: %s", remap.name)
			if T := int(tenants % 4); T >= 2 {
				fuzzTenantInterleave(t, T, n, streams, dropLaunches,
					batchSize, skew, window, stragglerWin, maxWindow, retain, seed,
					durable, restartAt, wireBinary, remap)
				continue
			}
			batches := workload.StreamingArrivals(workload.StreamingSpec{
				Trace: workload.SyntheticSpec{
					Spans:        n,
					Streams:      int(streams % 4),
					DropLaunches: dropLaunches,
					Seed:         seed,
				},
				BatchSize:       int(batchSize % 1024),
				ReorderSkew:     vclock.Duration(skew % 512),
				StragglerWindow: vclock.Duration(stragglerWin % 2048),
				Seed:            seed + 1,
			})
			remap.apply(batches)
			parentSome(batches)
			recycled := tenants%4 == 1
			if wireBinary && !recycled {
				// The binary ingest path: round-trip every batch through the
				// wire codec before feeding, exactly as spans arrive off
				// /api/spans. The decoded clones carry the same IDs and
				// tracer-truth parents, so the oracle below is unaffected;
				// DecodeBinary's canonical within-batch order is what a real
				// binary-ingesting server publishes.
				for i, b := range batches {
					tr, err := trace.DecodeBinary(bytes.NewReader(trace.AppendBinaryFrameTenant(nil, "", b)))
					if err != nil {
						t.Fatalf("batch %d failed the wire round trip: %v", i, err)
					}
					batches[i] = tr.Spans
				}
			}
			opts := core.StreamOptions{
				ReorderWindow: vclock.Duration(window % 512),
				Retain:        vclock.Duration(retain % 4096),
			}.WithMaxWindowSpans(int(maxWindow)) // negative = unbounded, 0 = default, tiny = aggressive chaining
			restart := -1
			if durable && len(batches) > 0 {
				restart = int(restartAt) % len(batches)
			}
			checkStream(t, batches, opts, durable, restart, recycled)
		}
	})
}

// corrRemap is an injective rewrite of a stream's correlation ids, applied
// before the stream is fed and its batch oracle computed, so the two must
// still agree under it.
type corrRemap struct {
	name string
	id   func(corr uint64) uint64 // nil: the ids as generated
}

// corrRemaps returns the rewrites every oracle input runs under: the
// generator's dense ids; a seed-chosen stride c<<20, which puts every id on
// one slot of any correlation table under 2^20 slots and so drives its spill
// and its growth; and random 64-bit ids.
func corrRemaps(seed int64) []corrRemap {
	rng := rand.New(rand.NewSource(seed))
	c := uint64(1 + rng.Intn(255))
	random, used := make(map[uint64]uint64), make(map[uint64]bool)
	return []corrRemap{
		{name: "dense"},
		{name: fmt.Sprintf("stride %d<<20", c), id: func(corr uint64) uint64 { return corr * c << 20 }},
		{name: "random", id: func(corr uint64) uint64 {
			for random[corr] == 0 {
				if r := rng.Uint64(); r != 0 && !used[r] {
					random[corr], used[r] = r, true
				}
			}
			return random[corr]
		}},
	}
}

func (m corrRemap) apply(batches [][]*trace.Span) {
	if m.id == nil {
		return
	}
	for _, b := range batches {
		for _, s := range b {
			if s.CorrelationID != 0 {
				s.CorrelationID = m.id(s.CorrelationID)
			}
		}
	}
}

// checkStreamVsBatch feeds batches to one correlator built from opts and
// holds what it ends with to the batch oracle. Durable backs it with an
// in-memory segio store and, before batch index restart (none when
// negative), simulates a process restart: close the store, reopen the
// surviving files, RecoverStream, keep feeding.
// The reorder buffer's shapes FuzzStreamVsBatch's knobs cannot draw, held
// to its oracle: batches fed in reverse order, within the window and behind
// it; a Flush of an empty buffer and of a one-span one; and duplicate span
// ids — the whole stream fed twice, each copy a full tie with the other —
// where every copy must take the parent the batch reference gives its id.
func TestStreamVsBatchBufferShapes(t *testing.T) {
	for _, streams := range []int{1, 3} {
		batches := workload.StreamingArrivals(workload.StreamingSpec{
			Trace:     workload.SyntheticSpec{Spans: 2_000, Streams: streams, Seed: 17},
			BatchSize: 64,
		})
		slices.Reverse(batches)
		for _, window := range []vclock.Duration{0, 511, 1 << 40} {
			t.Run(fmt.Sprintf("reversed/streams=%d/window=%d", streams, window), func(t *testing.T) {
				checkStreamVsBatch(t, cloneBatches(batches), core.StreamOptions{ReorderWindow: window}, false, -1)
			})
		}
	}
	t.Run("flush-empty", func(t *testing.T) {
		checkStreamVsBatch(t, nil, core.StreamOptions{ReorderWindow: 64}, false, -1)
	})
	t.Run("flush-one", func(t *testing.T) {
		one := [][]*trace.Span{{{ID: 1, Level: trace.LevelModel, Name: "model_prediction", Begin: 10, End: 20}}}
		checkStreamVsBatch(t, one, core.StreamOptions{ReorderWindow: 64}, false, -1)
	})
	t.Run("duplicate-ids", func(t *testing.T) {
		batches := workload.StreamingArrivals(workload.StreamingSpec{
			Trace:       workload.SyntheticSpec{Spans: 1_000, Streams: 3, Seed: 18},
			BatchSize:   32,
			ReorderSkew: 64,
			Seed:        19,
		})
		twice := append(cloneBatches(batches), cloneBatches(batches)...)
		want := batchParents(twice)
		for _, window := range []vclock.Duration{0, 64, 1 << 40} {
			sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: window})
			feedAll(sc, twice)
			sc.Flush()
			got := sc.Trace()
			if len(got.Spans) != 2*len(want) {
				t.Fatalf("window %d: the stream holds %d spans, fed %d", window, len(got.Spans), 2*len(want))
			}
			for _, s := range got.Spans {
				if s.ParentID != want[s.ID] {
					t.Fatalf("window %d: span %d: stream parent %d, batch parent %d", window, s.ID, s.ParentID, want[s.ID])
				}
			}
		}
	})
}

func checkStreamVsBatch(t *testing.T, batches [][]*trace.Span, opts core.StreamOptions, durable bool, restart int) {
	checkStream(t, batches, opts, durable, restart, false)
}

// checkStream is checkStreamVsBatch, with recycled feeding each batch as the
// server does: framed, decoded by the recycling DecodeBinary just before it
// is fed, and fed owned, so the stream's folds recycle its spans.
func checkStream(t *testing.T, batches [][]*trace.Span, opts core.StreamOptions, durable bool, restart int, recycled bool) {
	// The oracle must come from pristine spans: Correlate keeps
	// nonzero parents as tracer truth, and feeding mutates the spans
	// in place (batchParents clones, so compute it before the feed).
	want := batchParents(batches)
	fed := make(map[uint64]uint64, len(want))
	noteFed(fed, batches...)
	var sc *core.StreamCorrelator
	var fs *faultfs.FS
	var st *segio.Store
	if durable {
		fs = faultfs.New() // unarmed: a perfect disk, no injected crash
		var rec *segio.Recovery
		var err error
		st, rec, err = segio.Open(fs, segio.Options{})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		opts.Store = st
		if sc, err = core.RecoverStream(opts, rec); err != nil {
			t.Fatalf("recover empty store: %v", err)
		}
	} else {
		sc = core.NewStreamCorrelator(opts)
	}
	for i, b := range batches {
		if i == restart {
			// Simulated process restart: the store closes mid-stream
			// and the correlator is rebuilt from what the files hold.
			if err := st.Close(); err != nil {
				t.Fatalf("close store before restart: %v", err)
			}
			store, rec, err := segio.Open(fs, segio.Options{})
			if err != nil {
				t.Fatalf("reopen store: %v", err)
			}
			if len(rec.Quarantined) != 0 {
				t.Fatalf("clean restart quarantined %v", rec.Quarantined)
			}
			st = store
			opts.Store = st
			if sc, err = core.RecoverStream(opts, rec); err != nil {
				t.Fatalf("recover after restart: %v", err)
			}
			// The raw view comes back as it was published, mid-stream.
			checkSnapshotRaw(t, sc, fed)
		}
		feed := sc.FeedLogged
		if recycled {
			tr, err := trace.DecodeBinary(bytes.NewReader(trace.AppendBinaryFrameTenant(nil, "", b)))
			if err != nil {
				t.Fatalf("batch %d failed the wire round trip: %v", i, err)
			}
			b, feed = tr.Spans, sc.FeedOwned
		}
		if durable {
			if err := feed(uint64(i+1), b...); err != nil {
				t.Fatalf("batch %d not acked on a healthy disk: %v", i+1, err)
			}
		} else {
			_ = feed(0, b...) // Feed, or FeedOwned
		}
	}
	sc.Flush()
	if err := sc.DurabilityErr(); err != nil {
		t.Fatalf("durability error latched on a healthy disk: %v", err)
	}

	got := sc.Trace()
	if len(got.Spans) != len(want) {
		t.Fatalf("stream holds %d spans, fed %d", len(got.Spans), len(want))
	}
	for _, s := range got.Spans {
		if s.ParentID != want[s.ID] {
			t.Fatalf("span %d (%v %v [%d,%d) corr %d): stream parent %d, batch parent %d",
				s.ID, s.Level, s.Kind, s.Begin, s.End, s.CorrelationID, s.ParentID, want[s.ID])
		}
	}
	// Conservation: checkpointing must never drop or duplicate spans,
	// restart or not.
	stats := sc.Stats()
	if stats.Live+stats.Checkpointed != len(want) {
		t.Fatalf("live %d + checkpointed %d != fed %d", stats.Live, stats.Checkpointed, len(want))
	}
	// And with every link settled, the raw view still reads as fed.
	checkSnapshotRaw(t, sc, fed)
}

// parentSome hands one span in 41 to the model span (id 1) as a tracer would:
// a link the correlator must keep through folds, segment files, WAL
// snapshots and recovery, the batch oracle keeps too, and the raw view must
// not mask.
func parentSome(batches [][]*trace.Span) {
	for _, b := range batches {
		for _, s := range b {
			if s.ID%41 == 0 {
				s.ParentID = 1
			}
		}
	}
}

// TestRecoveryWithTracerParentedLaunches pins two recovery defects a
// tracer-parented launch exposed (its execs pend, which stalls the fold
// horizon until a deferred fold leaves the watermark's spans in segment
// files only): the watermark not restored from folded history, so a layer
// the crashed process had released was still buffered when its straggling
// launch was repaired, and a correlation entry derived from a folded launch
// the correlator does not own. Restarting at several points of one stream
// and inspecting after each is what told them apart.
func TestRecoveryWithTracerParentedLaunches(t *testing.T) {
	for _, restart := range []int{65, 80, 100, 150, 200} {
		t.Run(fmt.Sprint("restart", restart), func(t *testing.T) {
			batches := workload.StreamingArrivals(workload.StreamingSpec{
				Trace:           workload.SyntheticSpec{Spans: 4096, Streams: 3, Seed: 105},
				BatchSize:       16,
				ReorderSkew:     64,
				StragglerWindow: 300,
				Seed:            108,
			})
			parentSome(batches)
			checkStreamVsBatch(t, batches, core.StreamOptions{ReorderWindow: 8, Retain: 15}.WithMaxWindowSpans(24), true, restart)
		})
	}
}

// TestRecoveryRestoresReleaseFloorAfterDeferredFold pins a recovery defect of
// its own, found by FuzzStreamVsBatch (testdata's deferred_fold_restart_floor
// seeds are these two streams) and fixed apart from any change of the
// history's representation: after a deferred fold the WAL replay had not
// released past the folded spans, so a layer the crashed process had repaired
// as a straggler arrived punctual after the restart, and the launch a
// replay-time reopen had re-linked provisionally kept that link. relive
// raises the release floor to what it takes back live, and recovery installs
// the latest folded span as the floor once the replay is through.
func TestRecoveryRestoresReleaseFloorAfterDeferredFold(t *testing.T) {
	for _, tc := range []struct {
		name           string
		seed           int64
		window, retain vclock.Duration
		restart        int
	}{
		{"restart65", 1277, 55, 15, 65},
		{"restart195", 6, 8, 16, 195},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batches := workload.StreamingArrivals(workload.StreamingSpec{
				Trace:           workload.SyntheticSpec{Spans: 4096, Streams: 3, Seed: tc.seed},
				BatchSize:       16,
				ReorderSkew:     64,
				StragglerWindow: 300,
				Seed:            tc.seed + 1,
			})
			parentSome(batches)
			checkStreamVsBatch(t, batches, core.StreamOptions{ReorderWindow: tc.window, Retain: tc.retain}.WithMaxWindowSpans(24), true, tc.restart)
		})
	}
}

// observed counts what a StreamObserver was handed: each delivery by span id
// and the parent the span held at that moment.
type observed map[[2]uint64]int

func (o observed) ObserveSpan(s *trace.Span) { o[[2]uint64{s.ID, s.ParentID}]++ }

// TestRecoveryIgnoresSnapshotLiveOrder pins what lets the WAL snapshot list
// the live set holder by holder instead of in arrival order: recovery replays
// the snapshot's tail as one Feed and the reorder buffer's order is total, so
// the order of the tail carries nothing. The same files recovered with the
// tail reversed and shuffled (owned bits moved with their spans) give the
// same raw view, the same flushed trace and the same observer deliveries as
// with the tail as written — under both window shapes, mid-stream and at the
// end, with tracer-parented spans in the tails.
func TestRecoveryIgnoresSnapshotLiveOrder(t *testing.T) {
	type views struct {
		raw, flushed []*trace.Span
		seen         observed
	}
	identity := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		return p
	}
	permuted, parented := 0, 0
	for _, shape := range durableShapes {
		batches := shape.load(3_000, 7)
		for _, b := range batches {
			for _, s := range b {
				if s.ID%41 == 0 && s.Kind != trace.KindLaunch { // a parented launch's execs pend, and nothing folds
					s.ParentID = 1
				}
			}
		}
		for _, crash := range []int{len(batches) / 2, 4 * len(batches) / 5, len(batches)} {
			disk := faultfs.New()
			st, rec, err := segio.Open(disk, segio.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sc, err := core.RecoverStream(shape.opts(st), rec)
			if err != nil {
				t.Fatal(err)
			}
			if acked, crashed := feedDurable(sc, batches[:crash]); crashed {
				t.Fatalf("%s: a healthy disk failed after %d batches", shape.name, acked)
			}

			recoverWith := func(permute func(n int) []int) views {
				st, rec, err := segio.Open(disk.Recovered(), segio.Options{})
				if err != nil {
					t.Fatal(err)
				}
				snap := rec.Snapshot
				live, owned := snap.Live, snap.Owned
				snap.Live, snap.Owned = make([]*trace.Span, len(live)), make([]uint64, len(owned))
				for to, from := range permute(len(live)) {
					snap.Live[to] = live[from]
					if owned[from/64]&(1<<(from%64)) != 0 {
						snap.Owned[to/64] |= 1 << (to % 64)
					} else {
						parented++
					}
				}
				permuted += len(live)
				v := views{seen: observed{}}
				opts := shape.opts(st)
				opts.Observer = v.seen
				sc, err := core.RecoverStream(opts, rec)
				if err != nil {
					t.Fatal(err)
				}
				v.raw = sc.SnapshotRaw().Spans
				sc.Flush()
				v.flushed = sc.SnapshotTrace().Spans
				return v
			}
			want := recoverWith(identity)
			for name, permute := range map[string]func(n int) []int{
				"reversed": func(n int) []int { p := identity(n); slices.Reverse(p); return p },
				"shuffled": rand.New(rand.NewSource(int64(crash))).Perm,
			} {
				got := recoverWith(permute)
				ctx := fmt.Sprintf("%s, crash after batch %d, tail %s", shape.name, crash, name)
				if !reflect.DeepEqual(got.raw, want.raw) {
					t.Errorf("%s: SnapshotRaw differs from the tail as written", ctx)
				}
				if !reflect.DeepEqual(got.flushed, want.flushed) {
					t.Errorf("%s: the flushed SnapshotTrace differs from the tail as written", ctx)
				}
				if !reflect.DeepEqual(got.seen, want.seen) {
					t.Errorf("%s: the observer saw different deliveries", ctx)
				}
			}
		}
	}
	if permuted < 1_000 || parented == 0 {
		t.Fatalf("not adversarial enough: %d tail spans permuted, %d of them tracer-parented", permuted, parented)
	}
}

// fuzzTenantInterleave is the multi-tenant arm of FuzzStreamVsBatch: T
// tenants' independent workloads interleave round-robin through one
// TenantSet, and every tenant's stream must land on its own batch
// oracle. The durable dimension gives each tenant its own store and
// restarts the entire set mid-interleave; the wire dimension round-trips
// each batch through a tenant-tagged v2 binary frame.
func fuzzTenantInterleave(t *testing.T, T, n int, streams uint8, dropLaunches bool,
	batchSize, skew, window uint16, stragglerWin uint16, maxWindow int16, retain uint16, seed int64,
	durable bool, restartAt uint16, wireBinary bool, remap corrRemap) {
	keys := make([]string, T)
	loads := make([][][]*trace.Span, T)
	wants := make([]map[uint64]uint64, T)
	feds := make([]map[uint64]uint64, T)
	total := 0
	for k := 0; k < T; k++ {
		keys[k] = fmt.Sprintf("t%d", k)
		loads[k] = workload.StreamingArrivals(workload.StreamingSpec{
			Trace: workload.SyntheticSpec{
				Spans:        n,
				Streams:      int(streams % 4),
				DropLaunches: dropLaunches,
				Seed:         seed + int64(k)*101,
			},
			BatchSize:       int(batchSize % 1024),
			ReorderSkew:     vclock.Duration(skew % 512),
			StragglerWindow: vclock.Duration(stragglerWin % 2048),
			Seed:            seed + 1 + int64(k)*103,
		})
		remap.apply(loads[k])
		parentSome(loads[k])
		if wireBinary {
			for i, b := range loads[k] {
				tr, err := trace.DecodeBinary(bytes.NewReader(trace.AppendBinaryFrameTenant(nil, keys[k], b)))
				if err != nil {
					t.Fatalf("tenant %s batch %d failed the wire round trip: %v", keys[k], i, err)
				}
				if tr.Tenant != keys[k] {
					t.Fatalf("tenant %s batch %d decoded as tenant %q", keys[k], i, tr.Tenant)
				}
				loads[k][i] = tr.Spans
			}
		}
		wants[k] = batchParents(loads[k])
		feds[k] = make(map[uint64]uint64, len(wants[k]))
		noteFed(feds[k], loads[k]...)
		total += len(loads[k])
	}

	setOpts := core.TenantSetOptions{Stream: core.StreamOptions{
		ReorderWindow: vclock.Duration(window % 512),
		Retain:        vclock.Duration(retain % 4096),
	}.WithMaxWindowSpans(int(maxWindow))}
	if durable {
		fses := make(map[string]*faultfs.FS, T)
		for _, key := range keys {
			fses[key] = faultfs.New() // unarmed: a perfect disk per tenant
		}
		setOpts.OpenStore = func(tenant string) (*segio.Store, *segio.Recovery, error) {
			return segio.Open(fses[tenant], segio.Options{})
		}
	}
	set := core.NewTenantSet(setOpts)

	restart := -1
	if durable && total > 0 {
		restart = int(restartAt) % total
	}
	fed := 0
	next := make([]int, T) // per-tenant batch cursor; also the tenant's next batch id - 1
	for done := false; !done; {
		done = true
		for k := 0; k < T; k++ {
			j := next[k]
			if j >= len(loads[k]) {
				continue
			}
			done = false
			if fed == restart {
				// Simulated process restart mid-interleave: every tenant's
				// store closes, and a fresh set recovers each tenant from
				// its own surviving files.
				for _, key := range set.Keys() {
					if err := streamOf(set, key).Store().Close(); err != nil {
						t.Fatalf("close %s store before restart: %v", key, err)
					}
				}
				set = core.NewTenantSet(setOpts)
			}
			st, err := set.Stream(keys[k])
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Err(); err != nil {
				t.Fatalf("tenant %s degraded on a healthy disk: %v", keys[k], err)
			}
			if durable {
				if err := st.IngestLogged(uint64(j+1), loads[k][j]); err != nil {
					t.Fatalf("tenant %s batch %d not acked on a healthy disk: %v", keys[k], j+1, err)
				}
			} else {
				st.Publish(loads[k][j]...)
			}
			next[k] = j + 1
			fed++
		}
	}

	for k := 0; k < T; k++ {
		// A tenant that finished feeding before the whole-set restart
		// exists only in its durable files at this point: Stream recovers
		// it, and reading it back is itself recovery under test.
		st, err := set.Stream(keys[k])
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Err(); err != nil {
			t.Fatalf("tenant %s degraded on a healthy disk: %v", keys[k], err)
		}
		sc := st.Correlator()
		sc.Flush()
		if err := sc.DurabilityErr(); err != nil {
			t.Fatalf("tenant %s latched a durability error on a healthy disk: %v", keys[k], err)
		}
		got := sc.Trace()
		if len(got.Spans) != len(wants[k]) {
			t.Fatalf("tenant %s stream holds %d spans, fed %d", keys[k], len(got.Spans), len(wants[k]))
		}
		for _, s := range got.Spans {
			if s.ParentID != wants[k][s.ID] {
				t.Fatalf("tenant %s span %d (%v %v [%d,%d) corr %d): stream parent %d, batch parent %d",
					keys[k], s.ID, s.Level, s.Kind, s.Begin, s.End, s.CorrelationID, s.ParentID, wants[k][s.ID])
			}
		}
		stats := sc.Stats()
		if stats.Live+stats.Checkpointed != len(wants[k]) {
			t.Fatalf("tenant %s: live %d + checkpointed %d != fed %d",
				keys[k], stats.Live, stats.Checkpointed, len(wants[k]))
		}
		checkSnapshotRaw(t, sc, feds[k])
	}
}

// runObserver records the runs an ObserveSpans observer is handed: each
// run's length and, in order, every span's key.
type runObserver struct {
	runs []int
	keys []*trace.Span
}

func (o *runObserver) ObserveSpan(s *trace.Span) { o.ObserveSpans([]*trace.Span{s}) }

func (o *runObserver) ObserveSpans(run []*trace.Span) {
	o.runs = append(o.runs, len(run))
	for _, s := range run {
		o.keys = append(o.keys, &trace.Span{ID: s.ID, Begin: s.Begin, Level: s.Level})
	}
}

// Recovery hands an observer the folded history in runs of at most 4096
// spans, never the whole history in one: the runs together are the
// recovered segments in canonical order, and with the WAL replay after them
// the observer sees every fed span exactly once.
func TestRecoveryReplaysHistoryInBoundedRuns(t *testing.T) {
	batches := durableLoad(20_000, 3)
	disk := faultfs.New()
	st, rec, err := segio.Open(disk, segio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := core.RecoverStream(durableOpts(st), rec)
	if err != nil {
		t.Fatal(err)
	}
	if acked, crashed := feedDurable(sc, batches); crashed {
		t.Fatalf("a healthy disk failed after %d batches", acked)
	}
	folded := sc.Stats().Checkpointed
	if folded < 3*4096 {
		t.Fatalf("only %d spans folded", folded)
	}

	st, rec, err = segio.Open(disk.Recovered(), segio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	obs := &runObserver{}
	opts := durableOpts(st)
	opts.Observer = obs
	if sc, err = core.RecoverStream(opts, rec); err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, n := range obs.runs {
		if replayed >= folded {
			break
		}
		if n > 4096 {
			t.Fatalf("recovery handed the observer a run of %d spans", n)
		}
		replayed += n
	}
	if replayed != folded {
		t.Fatalf("the replay runs hold %d spans, the segments %d", replayed, folded)
	}
	for i := 1; i < folded; i++ {
		if trace.CanonicalLess(obs.keys[i], obs.keys[i-1]) {
			t.Fatalf("replayed span %d (id %d) sorts before span %d (id %d)", i, obs.keys[i].ID, i-1, obs.keys[i-1].ID)
		}
	}
	sc.Flush()
	seen := make(map[uint64]int)
	for _, s := range obs.keys {
		seen[s.ID]++
	}
	fed := 0
	for _, b := range batches {
		for _, s := range b {
			if fed++; seen[s.ID] != 1 {
				t.Fatalf("span %d reached the observer %d times", s.ID, seen[s.ID])
			}
		}
	}
	if len(seen) != fed {
		t.Fatalf("the observer saw %d spans, %d were fed", len(seen), fed)
	}
}
