package core_test

// Fault-injection tests for the durable stream correlator: kill the
// store at every filesystem operation, reboot from the surviving durable
// state, finish the stream, and require the result to equal the batch
// oracle span for span. The faultfs crash model (content durable to the
// last Sync, names durable to the last SyncDir) is what makes "every
// crash point" enumerable.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"xsp/internal/core"
	"xsp/internal/segio"
	"xsp/internal/segio/faultfs"
	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

// durableOpts is the correlator configuration the fault tests run under:
// a small reorder window and retain horizon so folds, compactions, and
// rotations all happen many times within a modest workload.
func durableOpts(store core.SegmentStore) core.StreamOptions {
	return core.StreamOptions{
		ReorderWindow: 16,
		Retain:        32,
		Store:         store,
	}
}

// durableWideOpts is the big-tail shape: a reorder window far wider than
// the retain horizon, so the live tail is many times what one fold
// releases and most folds defer their WAL rotation — crash points land
// inside runs of several deferred folds and the compactions among them.
func durableWideOpts(store core.SegmentStore) core.StreamOptions {
	return core.StreamOptions{
		ReorderWindow: 6000,
		Retain:        8,
		Store:         store,
	}
}

// durableWideLoad is the stream the big-tail shape runs: nested, so the
// fold horizon advances steadily and every Checkpoint folds a few batches
// against a tail many times that, with the withheld stragglers placed
// mid-trace so their repair reopens a ladder of deferred folds.
func durableWideLoad(spans int, seed int64) [][]*trace.Span {
	return workload.StreamingArrivals(workload.StreamingSpec{
		Trace:           workload.SyntheticSpec{Spans: spans, Seed: seed},
		BatchSize:       32,
		ReorderSkew:     8,
		StragglerWindow: 24,
		StragglerPos:    0.5,
		Seed:            seed + 4,
	})
}

// durableShapes are the window shapes every crash test runs under.
var durableShapes = []struct {
	name string
	opts func(core.SegmentStore) core.StreamOptions
	load func(spans int, seed int64) [][]*trace.Span
	// deferring shapes must put runs of deferred folds, and compactions
	// inside those runs, on the timeline being crashed.
	deferring bool
}{
	{"smalltail", durableOpts, durableLoad, false},
	{"bigtail", durableWideOpts, durableWideLoad, true},
}

// storeLog wraps a SegmentStore and derives, from the calls alone, what
// the rotation rule did: no stat field in core or segio exists for any of
// it, so a test that wants to know wraps the store.
type storeLog struct {
	core.SegmentStore

	fed          int // spans logged, ever
	segWrites    int // segment files written, ever
	walSpans     int // spans in the WAL: the last snapshot's tail plus batches since
	rotatedSpans int // sum of len(snap.Live) over every Rotate

	deferredFolds       int // folds that wrote their segment and left the WAL alone
	deferredCompactions int // compaction survivors replacing a segment written since the last Rotate
	ratioRotations      int // rotations a fold made, its segment written first
	forcedRotations     int // rotations no fold made (nor a recovery): a reopening repair's, covering the spans it took out of the checkpoint

	// A windowed reopen's remainders: segment writes right behind a forced
	// rotation that rewrite one file as fewer spans, but not none. ops, when
	// set, numbers the filesystem's operations; remainderAt is its reading as
	// each such write began — a crash there lands between the rotation and
	// the remainder's write.
	ops         func() int
	sizes       map[uint64]int // spans per segment file on disk
	forcedAt    []int          // ops as each forced rotation began: a crash there leaves the reopen to recovery's replay
	remainderAt []int
	afterForced bool // the last Rotate was no fold's, and no batch was logged since

	// The run since the last Rotate: what a crash right now would have
	// recovery install from segment files the WAL's snapshot predates.
	runWrites      int             // segment files written
	runCompactions int             // of them, deferred compactions
	sinceRotate    map[uint64]bool // the run's files still on disk; true: every span is also in the WAL

	foldOpen bool // a fold's WriteSegment has not yet been followed by Rotate or LogBatch
}

func newStoreLog(st core.SegmentStore) *storeLog {
	return &storeLog{SegmentStore: st, sinceRotate: make(map[uint64]bool), sizes: make(map[uint64]int)}
}

func (l *storeLog) closeFold() {
	if l.foldOpen {
		l.deferredFolds++
	}
	l.foldOpen = false
}

func (l *storeLog) LogBatch(spans []*trace.Span, batchID uint64) error {
	l.closeFold()
	l.afterForced = false
	if err := l.SegmentStore.LogBatch(spans, batchID); err != nil {
		return err
	}
	l.fed += len(spans)
	l.walSpans += len(spans)
	return nil
}

func (l *storeLog) WriteSegment(block []byte, replaces []uint64) (uint64, error) {
	blk, rest, err := trace.ParseSpanBlock(block)
	if err != nil || len(rest) != 0 {
		panic(fmt.Sprintf("segment payload is no span block: %v, %d bytes behind it", err, len(rest)))
	}
	return l.logSegment(blk.Len(), replaces, func() (uint64, error) { return l.SegmentStore.WriteSegment(block, replaces) })
}

// WriteGathered logs a streamed segment write as WriteSegment logs one
// handed over whole.
func (l *storeLog) WriteGathered(n int, walk func(yield func(blk *trace.SpanBlock, i int) bool) error, replaces []uint64) (uint64, error) {
	return l.logSegment(n, replaces, func() (uint64, error) { return l.SegmentStore.WriteGathered(n, walk, replaces) })
}

// logSegment derives what a segment write of spans spans replacing
// replaces was, around write.
func (l *storeLog) logSegment(spans int, replaces []uint64, write func() (uint64, error)) (uint64, error) {
	remainder := l.afterForced && len(replaces) == 1 && spans > 0 && spans < l.sizes[replaces[0]]
	if remainder && l.ops != nil {
		l.remainderAt = append(l.remainderAt, l.ops())
	}
	id, err := write()
	if err != nil {
		return 0, err
	}
	l.segWrites++
	l.sizes[id] = spans
	for _, r := range replaces {
		delete(l.sizes, r)
	}
	if l.afterForced {
		// A repair rewriting what it reopened, not a fold: nothing the WAL
		// covers, nothing the rotation rule decided.
		if !remainder {
			panic(fmt.Sprintf("segment write behind a forced rotation is no remainder: %d spans replacing %v", spans, replaces))
		}
		l.sinceRotate[id] = false
		return id, nil
	}
	l.foldOpen = true
	l.runWrites++
	for _, r := range replaces {
		if _, ok := l.sinceRotate[r]; ok {
			l.deferredCompactions++
			l.runCompactions++
			break
		}
	}
	covered := true // a fold, or a merge of nothing but this run's folds
	for _, r := range replaces {
		covered = covered && l.sinceRotate[r]
		delete(l.sinceRotate, r)
	}
	l.sinceRotate[id] = covered
	return id, nil
}

// coveredRun counts the run's segment files the WAL fully covers: the
// ones recovery could mistake for leftovers of a reopen.
func (l *storeLog) coveredRun() int {
	n := 0
	for _, covered := range l.sinceRotate {
		if covered {
			n++
		}
	}
	return n
}

func (l *storeLog) Rotate(snap segio.Snapshot) error {
	if !l.foldOpen && l.fed > 0 && l.ops != nil {
		l.forcedAt = append(l.forcedAt, l.ops())
	}
	if err := l.SegmentStore.Rotate(snap); err != nil {
		return err
	}
	if l.afterForced = !l.foldOpen; l.foldOpen {
		l.ratioRotations++
	} else if l.fed > 0 { // not the rotation that ends a recovery
		l.forcedRotations++
	}
	l.foldOpen = false
	l.walSpans = len(snap.Live)
	l.rotatedSpans += len(snap.Live)
	l.runWrites, l.runCompactions = 0, 0
	clear(l.sinceRotate)
	return nil
}

func (l *storeLog) DropSegments(ids []uint64) error {
	// Only a forced rotation has stale files to release: the ones a reopen
	// emptied.
	if len(ids) > 0 && !l.afterForced {
		panic(fmt.Sprintf("segments %v dropped behind a rotation no reopen forced", ids))
	}
	for _, id := range ids {
		delete(l.sizes, id)
	}
	return l.SegmentStore.DropSegments(ids)
}

// durableLoad is a stream with reordering, pipelined overlap, and a
// withheld straggler window — every repair path a crash can interleave
// with.
func durableLoad(spans int, seed int64) [][]*trace.Span {
	return workload.StreamingArrivals(workload.StreamingSpec{
		Trace:           workload.SyntheticSpec{Spans: spans, Streams: 2, Seed: seed},
		BatchSize:       32,
		ReorderSkew:     8,
		StragglerWindow: 24,
		Seed:            seed + 4,
	})
}

// durableWorkload is durableLoad at the seed the fault tests share.
func durableWorkload(spans int) [][]*trace.Span { return durableLoad(spans, 7) }

// allOwned is the owned bitset of n spans the correlator owns every one of.
func allOwned(n int) []uint64 {
	owned := make([]uint64, (n+63)/64)
	for i := range owned {
		owned[i] = ^uint64(0)
	}
	return owned
}

func cloneBatch(b []*trace.Span) []*trace.Span {
	out := make([]*trace.Span, len(b))
	for i, s := range b {
		out[i] = s.Clone()
	}
	return out
}

// feedDurable plays the client role: batches are fed through the
// FeedLogged ack barrier under ids 1..n (with a Checkpoint every few
// batches to exercise the segment path), and a batch counts as acked only
// when FeedLogged returns nil — the WAL fsync happened, the client may
// drop it. Feeding stops at the first sign of the injected crash. Fed
// spans are cloned so a later recovery run can refeed the originals.
func feedDurable(sc *core.StreamCorrelator, batches [][]*trace.Span) (acked int, crashed bool) {
	for i, b := range batches {
		if err := sc.FeedLogged(uint64(i+1), cloneBatch(b)...); err != nil {
			return acked, true
		}
		acked++ // durable before any later failure: the record is fsynced
		if sc.DurabilityErr() != nil {
			return acked, true
		}
		if (i+1)%4 == 0 {
			sc.Checkpoint()
			if sc.DurabilityErr() != nil {
				return acked, true
			}
		}
	}
	return acked, false
}

// spanIDSet collects the span ids of a trace.
func spanIDSet(t *trace.Trace) map[uint64]bool {
	ids := make(map[uint64]bool, len(t.Spans))
	for _, s := range t.Spans {
		ids[s.ID] = true
	}
	return ids
}

// TestDurableStreamCrashMatrix is the recovery oracle: for every
// filesystem operation the store performs over a full workload, crash
// there (cleanly, and with a torn unsynced tail), reboot from the durable
// state, refeed the batches the client never got an ack for, finish the
// stream, and require the recovered correlator's trace to equal the
// uncrashed batch correlation span for span. Along the way it pins the
// ack contract (every acked batch id is in the recovered dedup window,
// and nothing more) and that a clean or torn crash never quarantines a
// file — torn tails are truncated by checksum, not half-loaded. It runs
// under both window shapes: the small tail, where nearly every fold
// rotates, and the big one, where crash points land inside runs of
// deferred folds.
func TestDurableStreamCrashMatrix(t *testing.T) {
	type matrix struct {
		batches [][]*trace.Span
		want    map[uint64]uint64
		total   int // the store's mutating operations over the workload: the crash points
		// Crash points that leave recovery a reopen to do (as a forced
		// rotation begins: the stragglers are logged, their repair is not
		// durable) or to finish (between the rotation and the write of a
		// remainder): run at any stride, and with the recovery crashed too.
		reopenAt []int
	}
	runs := make([]matrix, len(durableShapes))
	for i, shape := range durableShapes {
		batches := shape.load(3_000, 7)
		runs[i] = matrix{batches: batches, want: batchParents(batches)}

		// Dry run on an unarmed FS: checks the durable path end to end and
		// counts the store's mutating operations.
		dry := faultfs.New()
		st, rec, err := segio.Open(dry, segio.Options{})
		if err != nil {
			t.Fatalf("%s: open: %v", shape.name, err)
		}
		log := newStoreLog(st)
		log.ops = dry.Ops
		sc, err := core.RecoverStream(shape.opts(log), rec)
		if err != nil {
			t.Fatalf("%s: recover: %v", shape.name, err)
		}
		if acked, crashed := feedDurable(sc, batches); crashed || acked != len(batches) {
			t.Fatalf("%s: unarmed run crashed after %d/%d batches: %v", shape.name, acked, len(batches), sc.DurabilityErr())
		}
		sc.Flush()
		if err := sc.DurabilityErr(); err != nil {
			t.Fatalf("%s: unarmed run latched: %v", shape.name, err)
		}
		assertStreamMatchesBatch(t, sc, batches)
		// The matrix is only worth its cost if folds, compaction merges, a
		// windowed checkpoint reopen that leaves a segment's remainder to
		// rewrite, and every outcome of the rotation rule — deferred, come
		// due by ratio, forced by a reopen — all actually put file
		// operations on the timeline being crashed.
		s := sc.Stats()
		adversarial := s.Compactions > 0 && s.Stragglers > 0 && s.Reopens > 0 &&
			log.deferredFolds > 0 && log.ratioRotations > 0 && log.forcedRotations > 0 && len(log.remainderAt) > 0
		if shape.deferring {
			adversarial = adversarial && log.deferredCompactions > 0 && log.deferredFolds >= 3*log.ratioRotations
		}
		if !adversarial {
			t.Fatalf("%s: workload not adversarial enough: %+v, folds deferred %d (compactions among them %d), rotations by ratio %d, forced %d, remainders written %d",
				shape.name, s, log.deferredFolds, log.deferredCompactions, log.ratioRotations, log.forcedRotations, len(log.remainderAt))
		}
		runs[i].reopenAt = append(log.forcedAt, log.remainderAt...)
		if runs[i].total = dry.Ops(); runs[i].total < 100 {
			t.Fatalf("%s: suspiciously few store operations to crash at: %d", shape.name, runs[i].total)
		}
	}

	stride := 1
	if testing.Short() {
		stride = 13
	}
	modes := []struct {
		name string
		mode faultfs.Mode
	}{{"clean", faultfs.ModeClean}, {"torn", faultfs.ModeTorn}}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			for i, shape := range durableShapes {
				shape, run := shape, runs[i]
				t.Run(shape.name, func(t *testing.T) {
					t.Parallel()
					for crash := 0; crash < run.total; crash += stride {
						crashAndRecover(t, fmt.Sprintf("crash@%d/%d", crash, run.total),
							faultfs.Plan{CrashAfter: crash, Mode: m.mode}, shape.opts, run.batches, run.want)
					}
					for _, crash := range run.reopenAt {
						crashRecoveryToo(t, fmt.Sprintf("crash@%d/%d", crash, run.total),
							faultfs.Plan{CrashAfter: crash, Mode: m.mode}, shape.opts, run.batches, run.want)
					}
				})
			}
		})
	}
}

// crashAndRecover is one cell of the matrix: a process doomed by plan
// feeds batches until the crash, a second one reboots from the durable
// view, the client retries everything it holds no ack for, and the
// finished stream must equal the batch oracle.
func crashAndRecover(t *testing.T, ctx string, plan faultfs.Plan, opts func(core.SegmentStore) core.StreamOptions,
	batches [][]*trace.Span, want map[uint64]uint64) {
	t.Helper()
	disk, acked := doomedRun(plan, opts, batches)
	rebootAndFinish(t, ctx, disk, acked, opts, batches, want)
}

// doomedRun is the process plan dooms: it feeds batches until the crash and
// returns the durable view it leaves behind with the number of batches the
// client holds an ack for.
func doomedRun(plan faultfs.Plan, opts func(core.SegmentStore) core.StreamOptions, batches [][]*trace.Span) (disk *faultfs.FS, acked int) {
	fs := faultfs.New()
	fs.Arm(plan)
	if st, rec, err := segio.Open(fs, segio.Options{}); err == nil {
		if sc, err := core.RecoverStream(opts(st), rec); err == nil {
			acked, _ = feedDurable(sc, batches)
		}
	}
	return fs.Recovered(), acked
}

// crashRecoveryToo is the matrix cell for the crash points whose recovery
// has a reopen of its own to do or to finish: the recovery is crashed too,
// at every one of its operations, and the boot after that must still finish
// the stream on the batch oracle.
func crashRecoveryToo(t *testing.T, ctx string, plan faultfs.Plan, opts func(core.SegmentStore) core.StreamOptions,
	batches [][]*trace.Span, want map[uint64]uint64) {
	t.Helper()
	disk, acked := doomedRun(plan, opts, batches)
	boot := func(fs *faultfs.FS) {
		if st, rec, err := segio.Open(fs, segio.Options{}); err == nil {
			_, _ = core.RecoverStream(opts(st), rec) // a crashed boot fails; the next one is what counts
		}
	}
	dry := disk.Recovered()
	boot(dry)
	for crash := 0; crash < dry.Ops(); crash++ {
		fs := disk.Recovered()
		fs.Arm(faultfs.Plan{CrashAfter: crash, Mode: plan.Mode})
		boot(fs)
		rebootAndFinish(t, fmt.Sprintf("%s, recovery crash@%d/%d", ctx, crash, dry.Ops()), fs.Recovered(), acked, opts, batches, want)
	}
}

// rebootAndFinish boots from the durable view disk, has the client retry
// everything past the acked batches, and requires the finished stream to
// equal the batch oracle.
func rebootAndFinish(t *testing.T, ctx string, disk *faultfs.FS, acked int, opts func(core.SegmentStore) core.StreamOptions,
	batches [][]*trace.Span, want map[uint64]uint64) {
	t.Helper()
	st2, rec2, err := segio.Open(disk, segio.Options{})
	if err != nil {
		t.Fatalf("%s: recovery open: %v", ctx, err)
	}
	if len(rec2.Quarantined) != 0 {
		t.Fatalf("%s: crash quarantined %v — synced data must never fail validation", ctx, rec2.Quarantined)
	}
	if len(rec2.DedupIDs) != acked {
		t.Fatalf("%s: %d batches acked but %d dedup ids recovered", ctx, acked, len(rec2.DedupIDs))
	}
	for _, id := range rec2.DedupIDs {
		if id == 0 || id > uint64(acked) {
			t.Fatalf("%s: recovered dedup id %d outside acked range 1..%d", ctx, id, acked)
		}
	}

	sc2, err := core.RecoverStream(opts(st2), rec2)
	if err != nil {
		t.Fatalf("%s: recover: %v", ctx, err)
	}
	// The client retries everything it holds no ack for.
	for i := acked; i < len(batches); i++ {
		if err := sc2.FeedLogged(uint64(i+1), cloneBatch(batches[i])...); err != nil {
			t.Fatalf("%s: refeed batch %d: %v", ctx, i+1, err)
		}
	}
	sc2.Flush()
	if err := sc2.DurabilityErr(); err != nil {
		t.Fatalf("%s: recovered run latched: %v", ctx, err)
	}
	got := sc2.Trace()
	if len(got.Spans) != len(want) {
		t.Fatalf("%s: recovered %d spans, want %d", ctx, len(got.Spans), len(want))
	}
	for _, s := range got.Spans {
		if s.ParentID != want[s.ID] {
			t.Fatalf("%s: span %d: recovered parent %d, batch parent %d", ctx, s.ID, s.ParentID, want[s.ID])
		}
	}
}

// The first contract of the rotation rule: a fold costs what it folds.
// Over a stream whose live tail is several times what one fold releases,
// the spans every rotation rewrites add up to no more than the spans fed,
// and the WAL never holds more than twice the live tail plus the batch in
// flight. Rotating at every fold, as the correlator once did, rewrites
// the tail once per fold — the test first shows that sum is several times
// the stream, so the bound it then checks is not vacuous.
func TestFoldRotationAmortised(t *testing.T) {
	const batchSize = 256
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace:     workload.SyntheticSpec{Spans: 40_000, Seed: 3},
		BatchSize: batchSize, ReorderSkew: 48, Seed: 3,
	})
	st, rec, err := segio.Open(faultfs.New(), segio.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	log := newStoreLog(st)
	sc, err := core.RecoverStream(core.StreamOptions{ReorderWindow: 60_000, Retain: 64, Store: log}, rec)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	folds, tailAtFolds, checkpointed := 0, 0, 0
	for i, b := range batches {
		if err := sc.FeedLogged(uint64(i+1), b...); err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
		s := sc.Stats()
		if s.Checkpointed != checkpointed {
			checkpointed = s.Checkpointed
			folds++
			tailAtFolds += s.Live
		}
		if log.walSpans > 2*s.Live+len(b) {
			t.Fatalf("after batch %d the WAL holds %d spans against a live tail of %d: over 2x live + one batch (%d)",
				i+1, log.walSpans, s.Live, len(b))
		}
	}
	if err := sc.DurabilityErr(); err != nil {
		t.Fatalf("latched: %v", err)
	}
	if folds < 10 || tailAtFolds < 3*log.fed || log.ratioRotations == 0 {
		t.Fatalf("not a big-tail stream: %d folds, live tails at them sum to %d of %d spans fed, %d rotations by ratio",
			folds, tailAtFolds, log.fed, log.ratioRotations)
	}
	if log.rotatedSpans > log.fed {
		t.Fatalf("rotations rewrote %d spans for %d fed", log.rotatedSpans, log.fed)
	}
	sc.Flush()
	assertStreamMatchesBatch(t, sc, batches)
}

// The automatic fold's cadence: it waits for max(1024, live/8) releases.
// A fold's in-memory pass is O(live) and its durable part is a file, an
// fsync, a rename and a directory sync, so at a 64k-span tail a fold every
// 1024 releases visits ~64 live spans per span released and writes a
// ~1k-span file per batch. Waiting for an eighth of the tail bounds the
// visits at 8 per released span and makes every file carry an eighth of
// the tail, at the price of the tail overshooting its horizon by at most a
// seventh (L = T + L/8). Both halves are inspected after every batch, not
// at the end: the overshoot bound on the big tail; and on a tail under 8192
// spans the very fold sequence the fixed cadence produced.
func TestFoldCadenceScalesWithLive(t *testing.T) {
	const batchSize, retain, fixedCadence = 1024, 64, 1024
	// drive feeds a nested stream through a store log and hands inspect each
	// batch's aftermath, with horizon = the fed spans the fold horizon
	// (watermark - window - retain) has not passed: what a fold right now
	// would leave live.
	drive := func(t *testing.T, spans int, window vclock.Duration,
		inspect func(sc *core.StreamCorrelator, log *storeLog, s core.StreamStats, horizon int)) {
		batches := workload.StreamingArrivals(workload.StreamingSpec{
			Trace:     workload.SyntheticSpec{Spans: spans, Seed: 11},
			BatchSize: batchSize, ReorderSkew: 48, Seed: 11,
		})
		var byEnd []*trace.Span
		for _, b := range batches {
			byEnd = append(byEnd, b...)
		}
		slices.SortFunc(byEnd, func(a, b *trace.Span) int { return cmp.Compare(a.End, b.End) })
		st, rec, err := segio.Open(faultfs.New(), segio.Options{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		log := newStoreLog(st)
		sc, err := core.RecoverStream(core.StreamOptions{ReorderWindow: window, Retain: retain, Store: log}, rec)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		fed, passed, maxBegin := make(map[uint64]bool), 0, vclock.Time(0)
		for i, b := range batches {
			if err := sc.FeedLogged(uint64(i+1), b...); err != nil {
				t.Fatalf("batch %d: %v", i+1, err)
			}
			for _, s := range b {
				fed[s.ID] = true
				maxBegin = max(maxBegin, s.Begin)
			}
			for f := maxBegin - vclock.Time(window) - retain; passed < len(byEnd) && byEnd[passed].End < f; passed++ {
				if !fed[byEnd[passed].ID] {
					t.Fatalf("batch %d: span %d fell behind the fold horizon before it was fed: not the in-window stream this test assumes", i+1, byEnd[passed].ID)
				}
			}
			inspect(sc, log, sc.Stats(), len(fed)-passed)
		}
		if err := sc.DurabilityErr(); err != nil {
			t.Fatalf("latched: %v", err)
		}
		sc.Flush()
		if s := sc.Stats(); s.Stragglers != 0 || s.Reopens != 0 {
			t.Fatalf("the stream was to stay inside its window: %+v", s)
		}
		assertStreamMatchesBatch(t, sc, batches)
	}

	t.Run("bigtail", func(t *testing.T) {
		var last core.StreamStats
		folds, peak := 0, 0
		fullAt, writesAtFull, writes := 0, 0, 0 // released and files written as the tail first filled (the first fold), files at the end
		drive(t, 360_000, 740_000, func(_ *core.StreamCorrelator, log *storeLog, s core.StreamStats, horizon int) {
			if limit := horizon*8/7 + batchSize; s.Live > limit {
				t.Fatalf("after %d spans fed the live tail is %d with %d inside the fold horizon: over 8/7 of them + one batch (%d)",
					s.Fed, s.Live, horizon, limit)
			}
			if s.Checkpointed != last.Checkpointed {
				if folds++; folds == 1 {
					fullAt, writesAtFull = s.Released, log.segWrites
				}
			}
			last, peak, writes = s, max(peak, horizon), log.segWrites
		})
		if peak < 56_000 || folds < 16 {
			t.Fatalf("not a big-tail stream: at most %d spans inside the fold horizon, %d folds", peak, folds)
		}
		// One segment file per eighth of the tail and the odd compaction
		// survivor beside it (~10 here); the fixed cadence wrote ~70 per 100k.
		if released := last.Released - fullAt; (writes-writesAtFull)*100_000 > 16*released {
			t.Fatalf("%d segment files written over %d releases with the tail full: over 16 per 100k", writes-writesAtFull, released)
		}
	})

	t.Run("smalltail", func(t *testing.T) {
		var last core.StreamStats
		foldCheck, folds := 0, 0
		drive(t, 60_000, 60_000, func(sc *core.StreamCorrelator, _ *storeLog, s core.StreamStats, horizon int) {
			if s.Live >= 8192 {
				t.Fatalf("live tail of %d: not the small-tail stream this half is about", s.Live)
			}
			// The fixed rule, replayed: an attempt is due once 1024 releases
			// have passed since the last one. A fold anywhere else, or a due
			// attempt that left something for Checkpoint to fold, is a cadence
			// the parent did not have.
			due := s.Released-foldCheck >= fixedCadence
			if s.Checkpointed != last.Checkpointed {
				if folds++; !due {
					t.Fatalf("after %d released a fold of %d spans the fixed cadence did not make", s.Released, s.Checkpointed-last.Checkpointed)
				}
			}
			if due {
				foldCheck = s.Released
				if n := sc.Checkpoint(); n != 0 {
					t.Fatalf("after %d released the fixed cadence folds %d spans the automatic fold left live", s.Released, n)
				}
			}
			last = s
		})
		if folds < 20 {
			t.Fatalf("only %d folds: the sequence compared is too short to mean anything", folds)
		}
	})
}

// The second contract: deferring a rotation must not move its cost into
// recovery. Crash inside a run of deferred folds with a compaction among
// them: the recovered correlator, before it is fed anything, holds the
// same checkpoint ladder the crashed one did, from the same files — no
// deferred fold was dropped for the WAL to re-derive — and the finished
// stream still equals the batch oracle.
func TestRecoverInstallsDeferredFolds(t *testing.T) {
	batches := durableWideLoad(3_000, 7)
	fs := faultfs.New()
	st, rec, err := segio.Open(fs, segio.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	log := newStoreLog(st)
	sc, err := core.RecoverStream(durableWideOpts(log), rec)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	// Stop inside a run of deferred folds with a segment the WAL fully
	// covers in it — the one the snapshot's stamp has to tell from a stale
	// leftover — and a segment older than the snapshot beside it.
	inRun := func() bool {
		return log.runWrites >= 3 && log.runCompactions > 0 && log.coveredRun() > 0 && len(log.sinceRotate) < st.Stats().Segments
	}
	acked := 0
	for acked < len(batches) && !inRun() {
		if err := sc.FeedLogged(uint64(acked+1), cloneBatch(batches[acked])...); err != nil {
			t.Fatalf("batch %d: %v", acked+1, err)
		}
		if acked++; acked%4 == 0 {
			sc.Checkpoint()
		}
	}
	if !inRun() {
		t.Fatalf("the stream never stood 3 segment writes and a compaction past a rotation, a covered segment and an older one on disk: ended %d writes, %d compactions past rotation %d",
			log.runWrites, log.runCompactions, log.ratioRotations)
	}
	before, files := sc.Stats(), st.Stats().Segments
	fs.Arm(faultfs.Plan{CrashAfter: fs.Ops(), Mode: faultfs.ModeTorn})
	if err := sc.FeedLogged(uint64(acked+1), cloneBatch(batches[acked])...); err == nil {
		t.Fatal("the batch fed into the crash was acknowledged")
	}

	st2, rec2, err := segio.Open(fs.Recovered(), segio.Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if len(rec2.Quarantined) != 0 || len(rec2.Segments) != files {
		t.Fatalf("recovered %d segment files (quarantined %v), the crashed store held %d", len(rec2.Segments), rec2.Quarantined, files)
	}
	deferred := 0
	for _, seg := range rec2.Segments {
		if seg.SinceSnapshot {
			deferred++
		}
	}
	if deferred == 0 || deferred == len(rec2.Segments) {
		t.Fatalf("%d of %d recovered segments postdate the snapshot: want deferred folds beside older ones", deferred, len(rec2.Segments))
	}
	sc2, err := core.RecoverStream(durableWideOpts(st2), rec2)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if after := sc2.Stats(); after.Checkpointed != before.Checkpointed || after.Live != before.Live || after.Segments != before.Segments {
		t.Fatalf("recovered %d checkpointed in %d segments + %d live, crashed with %d in %d + %d",
			after.Checkpointed, after.Segments, after.Live, before.Checkpointed, before.Segments, before.Live)
	}
	if got := st2.Stats().Segments; got != files {
		t.Fatalf("recovery left %d segment files, found %d", got, files)
	}
	if acked2, crashed := feedDurable2(sc2, batches, acked); crashed || acked2 != len(batches)-acked {
		t.Fatalf("refeed after recovery: acked %d, crashed=%v (%v)", acked2, crashed, sc2.DurabilityErr())
	}
	sc2.Flush()
	assertStreamMatchesBatch(t, sc2, batches)
}

// A snapshot record written before the segment-id stamp existed must still
// decode, and must date every segment as older than itself — so a segment
// its WAL fully covers recovers the way it did when the record was
// written, by coverage: the WAL wins and the file is dropped. The same
// files with the stamp in place are a deferred fold, and install.
func TestSnapshotWithoutSegStampRecoversByCoverage(t *testing.T) {
	// A settled trace, split at a fold horizon: everything ending before it
	// is the folded segment, and the snapshot still carries the whole tail.
	ref := &trace.Trace{}
	for _, b := range workload.StreamingArrivals(workload.StreamingSpec{Trace: workload.SyntheticSpec{Spans: 400, Seed: 5}}) {
		ref.Spans = append(ref.Spans, b...)
	}
	ref.SortByBegin()
	want := batchParents([][]*trace.Span{ref.Spans})
	core.Correlate(ref)
	horizon := ref.Spans[len(ref.Spans)/2].Begin
	var folded []*trace.Span
	for _, s := range ref.Spans {
		if s.End < horizon {
			folded = append(folded, s)
		}
	}
	if len(folded) < 50 || len(folded) > len(ref.Spans)-50 {
		t.Fatalf("fold horizon splits %d spans %d/%d", len(ref.Spans), len(folded), len(ref.Spans)-len(folded))
	}
	fs := faultfs.New()
	st, _, err := segio.Open(fs, segio.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := st.Rotate(segio.Snapshot{Live: ref.Spans, Owned: allOwned(len(ref.Spans))}); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if _, err := st.WriteSegment(trace.AppendSpanBlock(nil, folded, func(int) bool { return true }), nil); err != nil {
		t.Fatalf("write segment: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	recoverFrom := func(fs *faultfs.FS, sinceSnapshot bool, checkpointed int) {
		t.Helper()
		st, rec, err := segio.Open(fs, segio.Options{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if len(rec.Quarantined) != 0 || rec.WALTruncatedBytes != 0 || rec.Snapshot == nil || len(rec.Snapshot.Live) != len(ref.Spans) {
			t.Fatalf("snapshot did not decode whole: quarantined %v, %d bytes truncated, snapshot %v", rec.Quarantined, rec.WALTruncatedBytes, rec.Snapshot)
		}
		if len(rec.Segments) != 1 || rec.Segments[0].SinceSnapshot != sinceSnapshot {
			t.Fatalf("recovered segments %+v, want one with SinceSnapshot=%v", rec.Segments, sinceSnapshot)
		}
		sc, err := core.RecoverStream(core.StreamOptions{ReorderWindow: 16, Store: st}, rec)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if s := sc.Stats(); s.Checkpointed != checkpointed || s.Checkpointed+s.Live != len(ref.Spans) {
			t.Fatalf("recovered %d checkpointed + %d live of %d spans, want %d checkpointed", s.Checkpointed, s.Live, len(ref.Spans), checkpointed)
		}
		if got, want := st.Stats().Segments, min(checkpointed, 1); got != want {
			t.Fatalf("%d segment files after recovery, want %d", got, want)
		}
		sc.Flush()
		for _, s := range sc.Trace().Spans {
			if s.ParentID != want[s.ID] {
				t.Fatalf("span %d: recovered parent %d, batch parent %d", s.ID, s.ParentID, want[s.ID])
			}
		}
	}

	// The record as PR 12 wrote it: the same bytes less the trailing stamp,
	// under a recomputed frame (u32 length, u32 CRC-32C over the body).
	old := fs.Recovered()
	const walHeader, recHeader, stamp = 16, 8, 8
	name := "wal-0000000000000002.wal"
	data, err := old.ReadFile(name)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	if n := int(binary.LittleEndian.Uint32(data[walHeader:])); walHeader+recHeader+n != len(data) {
		t.Fatalf("WAL is not one snapshot record: %d bytes, record of %d", len(data), n)
	}
	body := data[walHeader+recHeader : len(data)-stamp]
	data = data[:walHeader+recHeader+len(body)]
	binary.LittleEndian.PutUint32(data[walHeader:], uint32(len(body)))
	binary.LittleEndian.PutUint32(data[walHeader+4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	f, err := old.Create(name)
	if err != nil {
		t.Fatalf("rewrite wal: %v", err)
	}
	_, werr := f.Write(data)
	if err := errors.Join(werr, f.Sync(), f.Close()); err != nil {
		t.Fatalf("rewrite wal: %v", err)
	}

	recoverFrom(old, false, 0)
	recoverFrom(fs, true, len(folded))
}

// The WAL wins over an older-than-snapshot segment per span: a file that
// still holds spans the snapshot carries is what a crash leaves between a
// reopening repair's forced rotation and the rewrite of the segment's
// remainder. Recovery must install the segment without those spans — their
// parents in the file predate the repair; here they are plainly wrong — take
// them from the WAL instead, and leave one rewritten file holding exactly
// the remainder. Crashing the recovery itself at every operation must come
// out the same.
func TestRecoverDropsWALCoveredSpansFromOlderSegment(t *testing.T) {
	ref := &trace.Trace{}
	for _, b := range workload.StreamingArrivals(workload.StreamingSpec{Trace: workload.SyntheticSpec{Spans: 600, Seed: 5}}) {
		ref.Spans = append(ref.Spans, b...)
	}
	ref.SortByBegin()
	want := batchParents([][]*trace.Span{ref.Spans})
	core.Correlate(ref)
	horizon := ref.Spans[2*len(ref.Spans)/3].Begin
	lo, hi := ref.Spans[len(ref.Spans)/4].Begin, ref.Spans[len(ref.Spans)/3].Begin

	// The segment as folded before the repair: everything ending before the
	// horizon. The snapshot the repair's rotation wrote: the tail, and the
	// folded spans overlapping [lo, hi] the repair took back (re-parented
	// since — the segment's copies of them carry a stale link).
	var folded, live []*trace.Span
	remainder := make(map[uint64]bool)
	for _, s := range ref.Spans {
		switch {
		case s.End >= horizon:
			live = append(live, s)
		case s.Begin <= hi && s.End >= lo:
			live = append(live, s)
			stale := s.Clone()
			stale.ParentID = 1 << 50
			folded = append(folded, stale)
		default:
			folded = append(folded, s)
			remainder[s.ID] = true
		}
	}
	pulled := len(folded) - len(remainder)
	if pulled < 20 || len(remainder) < 100 || len(live)-pulled < 100 {
		t.Fatalf("split %d spans: %d folded and kept, %d folded and pulled back, %d never folded", len(ref.Spans), len(remainder), pulled, len(live)-pulled)
	}
	base := faultfs.New()
	st, _, err := segio.Open(base, segio.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	oldID, err := st.WriteSegment(trace.AppendSpanBlock(nil, folded, func(int) bool { return true }), nil)
	if err != nil {
		t.Fatalf("write segment: %v", err)
	}
	if err := st.Rotate(segio.Snapshot{Live: live, Owned: allOwned(len(live))}); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// recoverOn boots from fs; a nil correlator is a boot the armed crash cut
	// short.
	recoverOn := func(fs *faultfs.FS) (*core.StreamCorrelator, *segio.Store) {
		st, rec, err := segio.Open(fs, segio.Options{})
		if err != nil {
			return nil, nil
		}
		if len(rec.Quarantined) != 0 {
			t.Fatalf("recovery quarantined %v", rec.Quarantined)
		}
		sc, err := core.RecoverStream(core.StreamOptions{ReorderWindow: 16, Store: st}, rec)
		if err != nil {
			return nil, nil
		}
		return sc, st
	}
	check := func(ctx string, fs *faultfs.FS) {
		t.Helper()
		sc, st := recoverOn(fs)
		if sc == nil {
			t.Fatalf("%s: recovery failed on a healthy disk", ctx)
		}
		if s := sc.Stats(); s.Checkpointed != len(remainder) || s.Live != len(live) {
			t.Fatalf("%s: recovered %d checkpointed + %d live, want the remainder's %d + %d", ctx, s.Checkpointed, s.Live, len(remainder), len(live))
		}
		if got := st.Stats().Segments; got != 1 {
			t.Fatalf("%s: %d segment files after recovery, want the rewritten remainder alone", ctx, got)
		}
		sc.Flush()
		for _, s := range sc.Trace().Spans {
			if s.ParentID != want[s.ID] {
				t.Fatalf("%s: span %d: recovered parent %d, batch parent %d", ctx, s.ID, s.ParentID, want[s.ID])
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("%s: close: %v", ctx, err)
		}
		// What is on disk now: one file, not the old one, the remainder only.
		_, rec, err := segio.Open(fs, segio.Options{})
		if err != nil {
			t.Fatalf("%s: reopen: %v", ctx, err)
		}
		if len(rec.Segments) != 1 || rec.Segments[0].ID == oldID || rec.Segments[0].File.Len() != len(remainder) {
			t.Fatalf("%s: segments on disk %+v, want one new file of %d spans", ctx, rec.Segments, len(remainder))
		}
		f := rec.Segments[0].File
		blk, _, err := f.Window(f.Pass(), 0, f.Len(), nil)
		if err != nil {
			t.Fatalf("%s: reading the rewritten segment: %v", ctx, err)
		}
		for i := 0; i < blk.Len(); i++ {
			if !remainder[blk.ID(i)] {
				t.Fatalf("%s: the rewritten segment holds span %d, which the WAL carries", ctx, blk.ID(i))
			}
		}
		f.Close()
	}

	dry := base.Recovered()
	check("uncrashed", dry)
	total := dry.Ops()
	if total < 8 {
		t.Fatalf("recovery took %d filesystem operations: too few to have rotated and rewritten", total)
	}
	for crash := 0; crash < total; crash++ {
		fs := base.Recovered()
		fs.Arm(faultfs.Plan{CrashAfter: crash, Mode: faultfs.ModeTorn})
		recoverOn(fs)
		check(fmt.Sprintf("recovery crashed@%d/%d", crash, total), fs.Recovered())
	}
}

// A lying disk (fsync acknowledged, nothing persisted) voids the
// durability claim — but recovery must still come up clean and empty, not
// half-load whatever the page cache left behind.
func TestDurableStreamDropSyncRecoversClean(t *testing.T) {
	fs := faultfs.New()
	fs.Arm(faultfs.Plan{CrashAfter: 1 << 30, DropSync: true})
	st, rec, err := segio.Open(fs, segio.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sc, err := core.RecoverStream(durableOpts(st), rec)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	batches := durableWorkload(600)
	if acked, crashed := feedDurable(sc, batches); crashed || acked != len(batches) {
		t.Fatalf("lying disk must keep acking: %d/%d, %v", acked, len(batches), sc.DurabilityErr())
	}

	st2, rec2, err := segio.Open(fs.Recovered(), segio.Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if len(rec2.Segments) != 0 || rec2.Snapshot != nil || len(rec2.Batches) != 0 || len(rec2.DedupIDs) != 0 {
		t.Fatalf("nothing was ever durable, yet recovery found segments=%d snapshot=%v batches=%d dedup=%d",
			len(rec2.Segments), rec2.Snapshot != nil, len(rec2.Batches), len(rec2.DedupIDs))
	}
	sc2, err := core.RecoverStream(durableOpts(st2), rec2)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := sc2.Trace(); len(got.Spans) != 0 {
		t.Fatalf("recovered %d spans from a disk that never persisted any", len(got.Spans))
	}
}

// At-rest corruption: flip a bit inside a published segment file, reopen,
// and require the file to be quarantined whole — the recovered trace is
// exactly the surviving files' spans, never a half-decoded segment.
func TestDurableStreamQuarantinesCorruptSegment(t *testing.T) {
	fs := faultfs.New()
	st, rec, err := segio.Open(fs, segio.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sc, err := core.RecoverStream(durableOpts(st), rec)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	batches := durableWorkload(1_200)
	if acked, crashed := feedDurable(sc, batches); crashed || acked != len(batches) {
		t.Fatalf("healthy run crashed: %d/%d, %v", acked, len(batches), sc.DurabilityErr())
	}
	sc.Flush()
	if err := sc.DurabilityErr(); err != nil {
		t.Fatalf("healthy run latched: %v", err)
	}
	all := spanIDSet(sc.Trace())
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Map one segment file to the spans that will be lost with it.
	_, recA, err := segio.Open(fs, segio.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recA.Segments) < 2 {
		t.Fatalf("want >=2 segments on disk, have %d", len(recA.Segments))
	}
	victim := recA.Segments[0]
	vblk, _, err := victim.File.Window(victim.File.Pass(), 0, victim.File.Len(), nil)
	if err != nil {
		t.Fatalf("read the victim: %v", err)
	}
	lost := make(map[uint64]bool)
	for i := 0; i < vblk.Len(); i++ {
		lost[vblk.ID(i)] = true
	}
	name := fmt.Sprintf("seg-%016x.seg", victim.ID)
	data, err := fs.ReadFile(name)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	if err := fs.Corrupt(name, len(data)/2); err != nil {
		t.Fatalf("corrupt: %v", err)
	}

	stB, recB, err := segio.Open(fs, segio.Options{})
	if err != nil {
		t.Fatalf("open after corruption: %v", err)
	}
	if len(recB.Quarantined) != 1 {
		t.Fatalf("quarantined %v, want exactly the corrupt segment", recB.Quarantined)
	}
	if len(recB.Segments) != len(recA.Segments)-1 {
		t.Fatalf("recovered %d segments, want %d", len(recB.Segments), len(recA.Segments)-1)
	}
	scB, err := core.RecoverStream(durableOpts(stB), recB)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	scB.Flush()
	got := spanIDSet(scB.Trace())
	for id := range got {
		if !all[id] {
			t.Fatalf("recovered span %d was never fed", id)
		}
		if lost[id] {
			t.Fatalf("span %d half-loaded out of the quarantined segment", id)
		}
	}
	if len(got) != len(all)-len(lost) {
		t.Fatalf("recovered %d spans, want %d (=%d total - %d quarantined)", len(got), len(all)-len(lost), len(all), len(lost))
	}
}

// Regression (ROADMAP carry-over): a straggler used to pin the fold
// horizon — finalizedBefore stops at the oldest unrepaired straggler — so
// one deep straggler froze checkpointing until the next explicit Flush.
// With Retain set, stragglers now repair at feed time; a Checkpoint right
// after the straggler batch (no Flush) must fold past it.
func TestStreamCorrelatorStragglerDoesNotPinFoldHorizon(t *testing.T) {
	const n = 4_000
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace:           workload.SyntheticSpec{Spans: n, Seed: 5},
		BatchSize:       64,
		StragglerWindow: 24,
		StragglerPos:    0.25, // withheld early: a pinned horizon would keep ~3/4 of the trace live
		Seed:            9,
	})
	sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 16, Retain: 32})
	feedAll(sc, batches)
	st := sc.Stats()
	if st.Stragglers == 0 {
		t.Fatal("workload produced no stragglers")
	}
	if st.Repaired == 0 {
		t.Fatal("stragglers were not repaired at feed time")
	}
	sc.Checkpoint()
	st = sc.Stats()
	if st.Live > st.Fed/2 {
		t.Fatalf("fold horizon still pinned by the straggler window: %d of %d spans live after Checkpoint", st.Live, st.Fed)
	}
	sc.Flush()
	assertStreamMatchesBatch(t, sc, batches)
}

// A failed disk degrades, not kills: the first store error fails the batch
// whose append it hit and latches DurabilityErr, every later FeedLogged is
// consumed RAM-only and returns nil, folds keep running without files, and
// after Flush the stream holds every other batch, correlated as the batch
// reference correlates them.
func TestStoreErrorDegradesToRAMOnly(t *testing.T) {
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace:     workload.SyntheticSpec{Spans: 3_000, Streams: 2, Seed: 31},
		BatchSize: 100,
	})
	disk := faultfs.New()
	st, _, err := segio.Open(disk, segio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := core.NewStreamCorrelator(core.StreamOptions{Store: st, Retain: 64})
	defer sc.Close()
	fail := len(batches) / 2
	var kept [][]*trace.Span
	folded := 0
	for i, b := range batches {
		if i == fail {
			disk.Arm(faultfs.Plan{CrashAfter: disk.Ops()}) // every file operation from here on fails
			folded = sc.Stats().Checkpointed
		}
		err := sc.FeedLogged(uint64(i+1), cloneBatch(b)...)
		switch {
		case i == fail && err == nil:
			t.Fatalf("batch %d: the append the disk failed was acknowledged", i+1)
		case i != fail && err != nil:
			t.Fatalf("batch %d: FeedLogged = %v; before the failure it logs, after it it runs RAM-only", i+1, err)
		case i != fail:
			kept = append(kept, b)
		}
	}
	if sc.DurabilityErr() == nil {
		t.Fatal("the store error did not latch")
	}
	if n := sc.Stats().Checkpointed; folded == 0 || n <= folded {
		t.Fatalf("checkpointed %d spans before the failure and %d after: the stream must fold on both sides of it", folded, n)
	}
	sc.Flush()
	want := batchParents(kept)
	got := sc.Trace()
	if len(got.Spans) != len(want) {
		t.Fatalf("the stream holds %d spans, want the %d of every batch but the failed one", len(got.Spans), len(want))
	}
	for _, s := range got.Spans {
		if p, ok := want[s.ID]; !ok || s.ParentID != p {
			t.Fatalf("span %d: parent %d, batch parent %d (known %v)", s.ID, s.ParentID, p, ok)
		}
	}
}
