package core_test

// External test package so the property tests can drive the stream
// correlator with internal/workload's arrival generator (workload imports
// core's sibling packages).

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"xsp/internal/core"
	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

// batchParents returns the reference assignment: batch Correlate on a
// clone of the accumulated spans in canonical order.
func batchParents(batches [][]*trace.Span) map[uint64]uint64 {
	ref := &trace.Trace{}
	for _, b := range batches {
		for _, s := range b {
			ref.Spans = append(ref.Spans, s.Clone())
		}
	}
	ref.SortByBegin()
	core.Correlate(ref)
	parents := make(map[uint64]uint64, len(ref.Spans))
	for _, s := range ref.Spans {
		parents[s.ID] = s.ParentID
	}
	return parents
}

// payloadTrace is a nested trace whose spans carry what a profiled model
// publishes — layer tags, kernel and memcpy metrics — the spans xsp-server
// ingests.
func payloadTrace(spans int, seed int64) workload.SyntheticSpec {
	return workload.SyntheticSpec{
		Spans: spans, Seed: seed, KernelMetrics: true, MemcpysPerLayer: 1,
		LayerTypes: []string{"Conv2D", "Relu", "BatchNorm"},
	}
}

// feedAll feeds clones: the correlator writes parent links into the spans it
// is fed for as long as they are live, and the batches stay what a batch
// correlation is later run over.
func feedAll(sc *core.StreamCorrelator, batches [][]*trace.Span) {
	for _, b := range batches {
		sc.Feed(cloneBatch(b)...)
	}
}

func assertStreamMatchesBatch(t *testing.T, sc *core.StreamCorrelator, batches [][]*trace.Span) {
	t.Helper()
	want := batchParents(batches)
	got := sc.Trace()
	if len(got.Spans) != len(want) {
		t.Fatalf("stream holds %d spans, fed %d", len(got.Spans), len(want))
	}
	for _, s := range got.Spans {
		if s.ParentID != want[s.ID] {
			t.Fatalf("span %d (%v %v [%d,%d)): stream parent %d, batch parent %d",
				s.ID, s.Level, s.Kind, s.Begin, s.End, s.ParentID, want[s.ID])
		}
	}
}

// Property: on every workload shape — nested, pipelined (window
// fallback), device-only (pending-exec fallback) — and under every
// arrival regime — in order, reordered within the window, reordered
// beyond it (stragglers) — the stream correlator's post-Flush parents are
// exactly the batch Correlate assignment.
func TestStreamCorrelatorMatchesBatch(t *testing.T) {
	shapes := []struct {
		name string
		spec workload.SyntheticSpec
	}{
		{"nested", workload.SyntheticSpec{Spans: 4_000}},
		{"pipelined", workload.SyntheticSpec{Spans: 4_000, Streams: 3}},
		{"deviceonly", workload.SyntheticSpec{Spans: 4_000, DropLaunches: true}},
	}
	arrivals := []struct {
		name   string
		skew   vclock.Duration
		window vclock.Duration
	}{
		{"inorder", 0, 0},
		{"reordered-in-window", 48, 48},
		{"stragglers", 64, 8},
	}
	// The window size bound chains degraded windows mid-overlap; the
	// default and a deliberately tiny bound must both land exactly on the
	// batch assignment.
	bounds := []struct {
		name string
		max  int
	}{
		{"default-window-bound", 0},
		{"tiny-window-bound", 96},
	}
	for _, shape := range shapes {
		for _, arr := range arrivals {
			for _, bound := range bounds {
				t.Run(shape.name+"/"+arr.name+"/"+bound.name, func(t *testing.T) {
					for seed := int64(0); seed < 10; seed++ {
						spec := shape.spec
						spec.Seed = seed
						batches := workload.StreamingArrivals(workload.StreamingSpec{
							Trace: spec, BatchSize: 128, ReorderSkew: arr.skew, Seed: seed + 100,
						})
						sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: arr.window}.WithMaxWindowSpans(bound.max))
						feedAll(sc, batches)
						sc.Flush()
						assertStreamMatchesBatch(t, sc, batches)

						st := sc.Stats()
						if arr.name == "reordered-in-window" && st.Stragglers != 0 {
							t.Fatalf("seed %d: window-covered skew produced %d stragglers", seed, st.Stragglers)
						}
						if shape.name == "pipelined" && st.DegradedWindows == 0 {
							t.Fatalf("seed %d: pipelined stream never degraded a window", seed)
						}
						if shape.name == "pipelined" && bound.max == 96 && st.WindowsChained == 0 {
							t.Fatalf("seed %d: sustained overlap never chained a bounded window", seed)
						}
						if shape.name == "nested" && st.DegradedWindows != 0 {
							t.Fatalf("seed %d: nested stream degraded %d windows", seed, st.DegradedWindows)
						}
					}
				})
			}
		}
	}
}

// The straggler path must actually be exercised by an under-sized window,
// and Flush must leave the stream usable: a second round of feeding and
// flushing continues from the settled state.
func TestStreamCorrelatorStragglersAndReuse(t *testing.T) {
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{Spans: 3_000, Seed: 2}, BatchSize: 64,
		ReorderSkew: 64, Seed: 7,
	})
	sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 4})
	feedAll(sc, batches)
	sc.Flush()
	if st := sc.Stats(); st.Stragglers == 0 {
		t.Fatal("under-sized reorder window produced no stragglers")
	}
	assertStreamMatchesBatch(t, sc, batches)

	// Continue the stream past the flush: a later layer with kernels,
	// arriving in order, must still resolve online against the rebuilt
	// ancestor stacks.
	base := sc.Trace()
	model := base.Spans[0]
	var end vclock.Time
	for _, s := range base.Spans {
		if s.End > end {
			end = s.End
		}
	}
	layer := &trace.Span{ID: 900001, Level: trace.LevelLayer, Name: "late-layer", Begin: end + 1, End: end + 50}
	exec := &trace.Span{ID: 900002, Level: trace.LevelKernel, Kind: trace.KindExec, Name: "k",
		Begin: end + 2, End: end + 10, CorrelationID: 900100}
	model.End = end + 100 // keep the model span enclosing; fed spans are shared
	sc.Feed(layer, exec)
	sc.Flush()
	if layer.ParentID != model.ID {
		t.Fatalf("post-flush layer parent = %d, want model %d", layer.ParentID, model.ID)
	}
	if exec.ParentID != layer.ID {
		t.Fatalf("post-flush exec parent = %d, want layer %d", exec.ParentID, layer.ID)
	}
}

// In-order nested streams resolve launch and synchronous spans the moment
// they arrive, and execution spans the moment their launch resolves — no
// Flush needed for any of them.
func TestStreamCorrelatorResolvesOnline(t *testing.T) {
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{Spans: 2_000, Seed: 4},
	})
	sc := core.NewStreamCorrelator(core.StreamOptions{})
	feedAll(sc, batches)

	st := sc.Stats()
	if st.Buffered != 0 || st.PendingExecs != 0 || st.Stragglers != 0 {
		t.Fatalf("in-order nested stream left work behind: %+v", st)
	}
	for _, s := range sc.Trace().Spans {
		if s.Level != trace.LevelModel && s.ParentID == 0 {
			t.Fatalf("span %d (%v %v) unresolved before Flush", s.ID, s.Level, s.Kind)
		}
	}
}

// Device-only execution records (no launch span ever arrives) wait in the
// pending table and take the containment fallback at Flush, exactly like
// the batch second pass.
func TestStreamCorrelatorDeviceOnlyPendsUntilFlush(t *testing.T) {
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{Spans: 1_000, DropLaunches: true, Seed: 6},
	})
	sc := core.NewStreamCorrelator(core.StreamOptions{})
	feedAll(sc, batches)
	if st := sc.Stats(); st.PendingExecs == 0 {
		t.Fatal("device-only stream pended no execs")
	}
	sc.Flush()
	if st := sc.Stats(); st.PendingExecs != 0 {
		t.Fatalf("Flush left %d execs pending", st.PendingExecs)
	}
	assertStreamMatchesBatch(t, sc, batches)
}

// Parents recorded by the tracers themselves are never overwritten, and a
// launch that arrives pre-parented contributes nothing to the correlation
// table — its exec falls back to containment, as in batch.
func TestStreamCorrelatorPreservesExplicitParents(t *testing.T) {
	spans := []*trace.Span{
		{ID: 1, Level: trace.LevelModel, Begin: 0, End: 100},
		{ID: 2, ParentID: 77, Level: trace.LevelLayer, Begin: 10, End: 50},
		{ID: 3, ParentID: 66, Level: trace.LevelKernel, Kind: trace.KindLaunch, Begin: 12, End: 14, CorrelationID: 5},
		{ID: 4, Level: trace.LevelKernel, Kind: trace.KindExec, Begin: 14, End: 20, CorrelationID: 5},
	}
	sc := core.NewStreamCorrelator(core.StreamOptions{})
	sc.Feed(spans...)
	sc.Flush()
	if spans[1].ParentID != 77 || spans[2].ParentID != 66 {
		t.Fatalf("explicit parents overwritten: %d, %d", spans[1].ParentID, spans[2].ParentID)
	}
	// Exec: its launch was pre-parented (not in the table), so containment
	// finds the layer — matching Correlate.
	if spans[3].ParentID != 2 {
		t.Fatalf("exec parent = %d, want containment layer 2", spans[3].ParentID)
	}
}

// The pinned pipelined-exec semantics of the batch paths hold online too:
// an exec crossing its layer's end inherits through the correlation id
// the moment its launch resolves, not by containment.
func TestStreamCorrelatorResolvesPipelinedExecViaCorrelation(t *testing.T) {
	sc := core.NewStreamCorrelator(core.StreamOptions{})
	sc.Feed(
		&trace.Span{ID: 1, Level: trace.LevelModel, Begin: 0, End: 200},
		&trace.Span{ID: 2, Level: trace.LevelLayer, Begin: 10, End: 50},
		&trace.Span{ID: 4, Level: trace.LevelKernel, Kind: trace.KindLaunch, Name: "cudaLaunchKernel", Begin: 12, End: 14, CorrelationID: 9},
		&trace.Span{ID: 5, Level: trace.LevelKernel, Kind: trace.KindExec, Name: "kernel", Begin: 40, End: 70, CorrelationID: 9},
		&trace.Span{ID: 3, Level: trace.LevelLayer, Begin: 50, End: 90},
	)
	tr := sc.Trace()
	if got := tr.SpansByID()[4].ParentID; got != 2 {
		t.Fatalf("launch parent = %d, want layer 2", got)
	}
	if got := tr.SpansByID()[5].ParentID; got != 2 {
		t.Fatalf("exec crossing layers must inherit launch parent 2 online, got %d", got)
	}
}

// Reset returns the correlator to empty: stats restart, and a fresh run
// fed afterwards resolves against a clean timeline rather than the
// previous run's ancestors.
func TestStreamCorrelatorReset(t *testing.T) {
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{Spans: 1_000, Streams: 2, Seed: 8},
	})
	sc := core.NewStreamCorrelator(core.StreamOptions{})
	feedAll(sc, batches)
	sc.Flush()
	sc.Reset()
	if st := sc.Stats(); st != (core.StreamStats{}) {
		t.Fatalf("Stats after Reset = %+v, want zero", st)
	}
	if got := len(sc.Trace().Spans); got != 0 {
		t.Fatalf("Reset left %d spans", got)
	}

	// A second, independent run: its virtual clock restarts at zero, so any
	// surviving pre-Reset state would misclassify these spans as
	// stragglers or parent them into the previous run.
	again := workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{Spans: 1_000, Seed: 9},
	})
	feedAll(sc, again)
	sc.Flush()
	if st := sc.Stats(); st.Stragglers != 0 {
		t.Fatalf("post-Reset run saw %d stragglers", st.Stragglers)
	}
	assertStreamMatchesBatch(t, sc, again)
}

// The tentpole regression: under sustained pipelined overlap the degraded
// window used to stay open for the whole stream, so the fold horizon
// stalled at its start and nothing checkpointed until Flush. With the size
// bound, windows chain and finalized history folds while the overlap is
// still running — and the result is still exactly the batch assignment.
func TestStreamCorrelatorChainedWindowsAdvanceFoldHorizon(t *testing.T) {
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{Spans: 20_000, Streams: 3, Seed: 5}, BatchSize: 256,
	})
	sc := core.NewStreamCorrelator(core.StreamOptions{Retain: 512}.WithMaxWindowSpans(512))
	feedAll(sc, batches)

	st := sc.Stats()
	if st.WindowsChained == 0 {
		t.Fatal("sustained pipelined overlap never hit the window size bound")
	}
	if st.DegradedWindows <= 1 {
		t.Fatalf("chained stream opened %d windows, want several", st.DegradedWindows)
	}
	// Before Flush: the horizon must have advanced through the chained
	// windows — the unbounded-window design checkpointed exactly 0 here.
	if st.Checkpointed == 0 {
		t.Fatal("fold horizon stalled: nothing checkpointed before Flush under sustained overlap")
	}
	if st.Live >= st.Fed/2 {
		t.Fatalf("live state %d of %d fed — fold horizon not keeping up", st.Live, st.Fed)
	}

	sc.Flush()
	assertStreamMatchesBatch(t, sc, batches)
}

// Geometric compaction must keep the segment count logarithmic in the
// checkpointed span count while folding continuously, and the merge
// schedule must leave the trace identical to an uncheckpointed stream
// (the checkpoint oracle test covers equality; this one pins the bounds).
func TestStreamCorrelatorGeometricCompactionBoundsSegments(t *testing.T) {
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{Spans: 30_000, Seed: 11}, BatchSize: 128,
	})
	sc := core.NewStreamCorrelator(core.StreamOptions{Retain: 256})
	maxSegments := 0
	for _, b := range batches {
		sc.Feed(cloneBatch(b)...)
		if st := sc.Stats(); st.Segments > maxSegments {
			maxSegments = st.Segments
		}
	}
	st := sc.Stats()
	if st.Checkpointed == 0 {
		t.Fatal("stream never folded")
	}
	if st.Compactions == 0 {
		t.Fatal("continuous folding never triggered a compaction")
	}
	// The doubling invariant admits at most ~log2(checkpointed/foldSize)
	// segments plus the in-flight fold; 16 is generous headroom for 30k
	// spans folded ~1k at a time.
	if maxSegments > 16 {
		t.Fatalf("segment count reached %d — geometric schedule not holding", maxSegments)
	}
	sc.Flush()
	assertStreamMatchesBatch(t, sc, batches)
}

// The CorrRetain horizon, table-tested: an execution span arriving inside
// the horizon still resolves through its launch's correlation id; one
// arriving beyond it finds the entry evicted and falls back to containment
// — the documented trade for a correlation table that stops growing with
// total launches.
func TestStreamCorrelatorCorrRetentionHorizon(t *testing.T) {
	const retain = vclock.Duration(1_000)
	cases := []struct {
		name       string
		execBegin  vclock.Time
		wantParent uint64 // 2 = launch's layer (via corr), 4 = containing layer
		wantEvict  bool
	}{
		// Exec arrives while the launch's entry is within the horizon:
		// correlation id wins even though the exec sits inside layer 4.
		{"inside-horizon", 450, 2, false},
		// Exec arrives far beyond the horizon: the entry is gone, and the
		// documented fallback parents it into the layer that contains it.
		{"beyond-horizon", 9_500, 4, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := core.NewStreamCorrelator(core.StreamOptions{CorrRetain: retain})
			sc.Feed(
				&trace.Span{ID: 1, Level: trace.LevelModel, Begin: 0, End: 20_000},
				&trace.Span{ID: 2, Level: trace.LevelLayer, Name: "launch-layer", Begin: 5, End: 100},
				&trace.Span{ID: 3, Level: trace.LevelKernel, Kind: trace.KindLaunch, Name: "cudaLaunchKernel",
					Begin: 10, End: 12, CorrelationID: 7},
			)
			// Filler layers advance the watermark (and with it the
			// amortized eviction sweep) up to the exec's arrival point.
			for begin := vclock.Time(200); begin+200 < tc.execBegin; begin += 200 {
				sc.Feed(&trace.Span{ID: uint64(100 + begin), Level: trace.LevelLayer, Name: "filler",
					Begin: begin, End: begin + 150})
			}
			// The layer the exec physically sits in.
			sc.Feed(&trace.Span{ID: 4, Level: trace.LevelLayer, Name: "exec-layer",
				Begin: tc.execBegin - 10, End: tc.execBegin + 100})
			exec := &trace.Span{ID: 5, Level: trace.LevelKernel, Kind: trace.KindExec, Name: "kernel",
				Begin: tc.execBegin, End: tc.execBegin + 20, CorrelationID: 7}
			sc.Feed(exec)
			sc.Flush()

			if exec.ParentID != tc.wantParent {
				t.Fatalf("exec parent = %d, want %d", exec.ParentID, tc.wantParent)
			}
			st := sc.Stats()
			if tc.wantEvict && st.CorrEvicted == 0 {
				t.Fatal("horizon passed the launch but nothing was evicted")
			}
			if !tc.wantEvict && exec.ParentID != 2 {
				t.Fatalf("in-horizon exec lost its correlation: parent %d", exec.ParentID)
			}
			if st.CorrEntries > 1 {
				t.Fatalf("correlation table holds %d entries after the horizon swept, want <= 1", st.CorrEntries)
			}
		})
	}
}

// A straggler repair overlapping a timely, correlation-resolved exec must
// not degrade it to containment just because CorrRetain evicted its
// launch's table entry in the meantime: the launch (outside the repair
// region) did not move, so the settled link is restored — matching what
// batch correlation assigns.
func TestStreamCorrelatorRepairKeepsSettledExecAfterCorrEviction(t *testing.T) {
	sc := core.NewStreamCorrelator(core.StreamOptions{CorrRetain: 1_000})
	sc.Feed(
		&trace.Span{ID: 1, Level: trace.LevelModel, Begin: 0, End: 100_000},
		&trace.Span{ID: 2, Level: trace.LevelLayer, Name: "launch-layer", Begin: 5, End: 100},
		&trace.Span{ID: 3, Level: trace.LevelKernel, Kind: trace.KindLaunch, Name: "cudaLaunchKernel",
			Begin: 10, End: 12, CorrelationID: 7},
	)
	sc.Feed(&trace.Span{ID: 4, Level: trace.LevelLayer, Name: "exec-layer", Begin: 440, End: 560})
	exec := &trace.Span{ID: 5, Level: trace.LevelKernel, Kind: trace.KindExec, Name: "kernel",
		Begin: 450, End: 470, CorrelationID: 7}
	sc.Feed(exec)
	if exec.ParentID != 2 {
		t.Fatalf("timely exec resolved to %d, want launch parent 2", exec.ParentID)
	}
	// Advance the watermark far enough that the eviction sweep drops the
	// launch's entry.
	for begin := vclock.Time(600); begin < 10_000; begin += 200 {
		sc.Feed(&trace.Span{ID: uint64(100 + begin), Level: trace.LevelLayer, Name: "filler",
			Begin: begin, End: begin + 150})
	}
	if st := sc.Stats(); st.CorrEvicted == 0 {
		t.Fatal("launch entry not evicted — test not exercising the eviction path")
	}
	// A straggler layer tighter than exec-layer lands over the exec's
	// window: the repair resets and re-resolves the region.
	sc.Feed(&trace.Span{ID: 6, Level: trace.LevelLayer, Name: "straggler-layer", Begin: 448, End: 476})
	sc.Flush()
	if st := sc.Stats(); st.Repaired == 0 {
		t.Fatal("straggler did not trigger a repair")
	}
	if exec.ParentID != 2 {
		t.Fatalf("repair degraded the settled exec to parent %d, want launch parent 2", exec.ParentID)
	}
}

// A straggler container moves a live launch's parent while the launch's
// exec lies after the repair window: the exec is outside every region the
// repair re-correlates, so only the propagation of the moved launch through
// its correlation id — a pass over the released runs — reaches it. Repaired
// at Flush (no Retain) and at feed time (Retain set, the exec still live).
func TestStreamCorrelatorMovedLaunchReachesExecPastTheWindow(t *testing.T) {
	for _, retain := range []vclock.Duration{0, 10_000} {
		batches := [][]*trace.Span{{
			{ID: 1, Level: trace.LevelModel, Begin: 0, End: 1_000},
			{ID: 2, Level: trace.LevelLayer, Name: "layer", Begin: 100, End: 200},
			{ID: 3, Level: trace.LevelKernel, Kind: trace.KindLaunch, Name: "cudaLaunchKernel", Begin: 130, End: 140, CorrelationID: 7},
			{ID: 4, Level: trace.LevelKernel, Kind: trace.KindExec, Name: "kernel", Begin: 500, End: 520, CorrelationID: 7},
		}, {
			// Behind the release point, between the layer and the launch.
			{ID: 5, Level: trace.LevelLibrary, Name: "cudnnConvolutionForward", Begin: 125, End: 150},
		}}
		// Fed as copies: the batch oracle below must start from unlinked spans.
		fed := [][]*trace.Span{cloneBatch(batches[0]), cloneBatch(batches[1])}
		exec := fed[0][3]
		sc := core.NewStreamCorrelator(core.StreamOptions{Retain: retain})
		sc.Feed(fed[0]...)
		if exec.ParentID != 2 {
			t.Fatalf("retain %d: timely exec resolved to %d, want its launch's layer 2", retain, exec.ParentID)
		}
		sc.Feed(fed[1]...)
		sc.Flush()
		if st := sc.Stats(); st.Stragglers != 1 || st.Repaired == 0 || st.Repaired > 4 {
			t.Fatalf("retain %d: %d stragglers, %d spans repaired; want one straggler and a region without the exec", retain, st.Stragglers, st.Repaired)
		}
		if exec.ParentID != 5 {
			t.Fatalf("retain %d: exec parent %d, want 5: its launch moved under the straggler", retain, exec.ParentID)
		}
		assertStreamMatchesBatch(t, sc, batches)
	}
}

// With CorrRetain set, device-only execution records no longer stall the
// fold horizon: pending execs past the horizon finalize by containment and
// the stream checkpoints while feeding — previously a device-only stream
// folded nothing until Flush.
func TestStreamCorrelatorCorrRetainUnstallsDeviceOnlyFolds(t *testing.T) {
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{Spans: 20_000, DropLaunches: true, Seed: 14}, BatchSize: 256,
	})
	sc := core.NewStreamCorrelator(core.StreamOptions{Retain: 512, CorrRetain: 512})
	feedAll(sc, batches)
	st := sc.Stats()
	if st.Checkpointed == 0 {
		t.Fatal("device-only stream with CorrRetain still stalls the fold horizon")
	}
	if st.PendingExecs >= st.Fed/4 {
		t.Fatalf("pending-exec table holds %d of %d fed — not bounded by the horizon", st.PendingExecs, st.Fed)
	}
	sc.Flush()
	// Device-only execs resolve by containment in batch too, so the
	// horizon-finalized parents agree with the batch assignment here.
	assertStreamMatchesBatch(t, sc, batches)
}

// cloneBatches deep-copies an arrival stream so two correlators can
// consume the same workload without racing on shared span pointers.
func cloneBatches(batches [][]*trace.Span) [][]*trace.Span {
	out := make([][]*trace.Span, len(batches))
	for i, b := range batches {
		out[i] = make([]*trace.Span, len(b))
		for j, s := range b {
			out[i][j] = s.Clone()
		}
	}
	return out
}

// Straggler repair must be bounded: withholding one fixed-width window of
// spans and delivering it last repairs roughly the window's population,
// not the whole stream — and still lands exactly on the batch assignment.
func TestStreamCorrelatorStragglerRepairIsBounded(t *testing.T) {
	shapes := []struct {
		name string
		spec workload.SyntheticSpec
	}{
		{"nested", workload.SyntheticSpec{Spans: 20_000}},
		{"pipelined", workload.SyntheticSpec{Spans: 20_000, Streams: 3}},
		{"deviceonly", workload.SyntheticSpec{Spans: 20_000, DropLaunches: true}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				spec := shape.spec
				spec.Seed = seed
				batches := workload.StreamingArrivals(workload.StreamingSpec{
					Trace: spec, BatchSize: 512, StragglerWindow: 2_048, Seed: seed + 50,
				})
				sc := core.NewStreamCorrelator(core.StreamOptions{})
				feedAll(sc, batches)
				sc.Flush()
				st := sc.Stats()
				if st.Stragglers == 0 {
					t.Fatalf("seed %d: straggler window delivered no stragglers", seed)
				}
				if st.Repaired == 0 {
					t.Fatalf("seed %d: stragglers arrived but nothing was repaired", seed)
				}
				if st.Repaired > st.Fed/4 {
					t.Fatalf("seed %d: repair touched %d of %d spans — not bounded by the window",
						seed, st.Repaired, st.Fed)
				}
				assertStreamMatchesBatch(t, sc, batches)
			}
		})
	}
}

// Oracle for the checkpoint path: on the same feed, a correlator that
// folds finalized history into checkpoint segments must produce exactly
// the Trace of one that never checkpoints — same spans, same order, same
// parents — on every shape, in order and under reordered arrivals.
func TestStreamCorrelatorCheckpointOracle(t *testing.T) {
	shapes := []struct {
		name string
		spec workload.SyntheticSpec
	}{
		{"nested", workload.SyntheticSpec{Spans: 6_000}},
		{"pipelined", workload.SyntheticSpec{Spans: 6_000, Streams: 3}},
		{"deviceonly", workload.SyntheticSpec{Spans: 6_000, DropLaunches: true}},
	}
	arrivals := []struct {
		name string
		skew vclock.Duration
	}{
		{"inorder", 0},
		{"reordered", 48},
	}
	for _, shape := range shapes {
		for _, arr := range arrivals {
			t.Run(shape.name+"/"+arr.name, func(t *testing.T) {
				for seed := int64(0); seed < 3; seed++ {
					spec := shape.spec
					spec.Seed = seed
					batches := workload.StreamingArrivals(workload.StreamingSpec{
						Trace: spec, BatchSize: 256, ReorderSkew: arr.skew, Seed: seed + 30,
					})
					generated := 0
					for _, b := range batches {
						generated += len(b)
					}
					plain := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: arr.skew})
					ck := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: arr.skew, Retain: 64})
					ckBatches := cloneBatches(batches)
					for i := range batches {
						plain.Feed(batches[i]...)
						ck.Feed(ckBatches[i]...)
						if i%4 == 3 {
							ck.Checkpoint()
						}
					}
					plain.Flush()
					ck.Flush()
					// Device-only streams hold the fold horizon at their
					// oldest pending exec and sustained pipelined overlap
					// holds it at the open window — Flush settles both, so
					// the post-Flush fold must retire nearly everything.
					ck.Checkpoint()

					st := ck.Stats()
					if st.Checkpointed == 0 {
						t.Fatalf("seed %d: checkpoint never folded", seed)
					}
					// Conservation against the independently-known input
					// size: Fed is derived as Live+Checkpointed, so the
					// assertion must anchor on the generated count or a
					// span-dropping fold would pass unnoticed.
					if st.Live+st.Checkpointed != generated {
						t.Fatalf("seed %d: live %d + checkpointed %d != generated %d",
							seed, st.Live, st.Checkpointed, generated)
					}
					if st.Live >= st.Fed/2 {
						t.Fatalf("seed %d: checkpointing left %d of %d spans live", seed, st.Live, st.Fed)
					}

					want := plain.Trace()
					got := ck.Trace()
					if len(got.Spans) != len(want.Spans) {
						t.Fatalf("seed %d: checkpointed trace has %d spans, plain %d",
							seed, len(got.Spans), len(want.Spans))
					}
					for i := range want.Spans {
						w, g := want.Spans[i], got.Spans[i]
						if w.ID != g.ID || w.ParentID != g.ParentID {
							t.Fatalf("seed %d: span %d: checkpointed (id %d parent %d) != plain (id %d parent %d)",
								seed, i, g.ID, g.ParentID, w.ID, w.ParentID)
						}
					}
					assertStreamMatchesBatch(t, ck, ckBatches)
				}
			})
		}
	}
}

// A straggler whose repair window reaches behind the checkpoint horizon
// must reopen the checkpoint and still land exactly on the batch
// assignment.
func TestStreamCorrelatorStragglerReopensCheckpoint(t *testing.T) {
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{Spans: 12_000, Seed: 3}, BatchSize: 256,
		StragglerWindow: 1_024, Seed: 21,
	})
	sc := core.NewStreamCorrelator(core.StreamOptions{Retain: 64})
	// Feed everything but the withheld final batch, then fold the history
	// — including the stragglers' window — into the checkpoint.
	feedAll(sc, batches[:len(batches)-1])
	if sc.Checkpoint() == 0 {
		t.Fatal("checkpoint folded nothing before the stragglers arrived")
	}
	sc.Feed(cloneBatch(batches[len(batches)-1])...)
	sc.Flush()

	st := sc.Stats()
	if st.Stragglers == 0 {
		t.Fatal("withheld batch produced no stragglers")
	}
	if st.Reopens == 0 {
		t.Fatal("deep straggler repair did not reopen the checkpoint")
	}
	assertStreamMatchesBatch(t, sc, batches)
}

// Reset returns a checkpointing correlator to empty — segments included —
// and the reused stream checkpoints and correlates a fresh run correctly.
func TestStreamCorrelatorCheckpointResetReuse(t *testing.T) {
	first := workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{Spans: 4_000, Seed: 12}, BatchSize: 256,
	})
	sc := core.NewStreamCorrelator(core.StreamOptions{Retain: 64})
	feedAll(sc, first)
	if sc.Checkpoint() == 0 {
		t.Fatal("first run never checkpointed")
	}
	sc.Flush()
	sc.Reset()
	if st := sc.Stats(); st != (core.StreamStats{}) {
		t.Fatalf("Stats after Reset = %+v, want zero", st)
	}
	if got := len(sc.Trace().Spans); got != 0 {
		t.Fatalf("Reset left %d spans (checkpoint segments survived?)", got)
	}

	// A fresh run on the reused correlator: its clock restarts at zero, so
	// surviving checkpoint state would misclassify everything.
	again := workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{Spans: 4_000, Seed: 13}, BatchSize: 256,
	})
	feedAll(sc, again)
	sc.Flush()
	if sc.Checkpoint() == 0 {
		t.Fatal("reused correlator never checkpointed")
	}
	if st := sc.Stats(); st.Stragglers != 0 {
		t.Fatalf("post-Reset run saw %d stragglers", st.Stragglers)
	}
	assertStreamMatchesBatch(t, sc, again)
}

// A fold retires exactly the spans it moved into the segment: on a
// pipelined stream skewed past the reorder window — stragglers pending,
// degraded windows open, the reorder buffer never empty — every fed span is
// either live or checkpointed after every Feed, and Trace returns each
// exactly once after every fold. The stream carries malformed spans
// (End < Begin: the server's HTTP ingress refuses them, Feed does not and
// direct callers rely on that) placed where a fold's horizon passes
// their End before the resolver has released them: one ahead of the
// watermark, waiting in the reorder buffer, and one behind the release
// floor, a straggler waiting for the open window to close. Retiring live
// spans by "ends before the horizon" alone drops both.
func TestFoldRetiresExactlyTheFolded(t *testing.T) {
	const window = 16
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace:     workload.SyntheticSpec{Spans: 24_000, Streams: 3, Seed: 5},
		BatchSize: 128, ReorderSkew: 4 * window, Seed: 6,
	})
	sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: window, Retain: 32})

	fed := make(map[uint64]bool)
	exactlyOnce := func(when string) {
		t.Helper()
		got := sc.Trace().Spans
		seen := make(map[uint64]bool, len(got))
		for _, s := range got {
			if seen[s.ID] {
				t.Fatalf("%s: span %d is both in the live tail and in a segment", when, s.ID)
			}
			seen[s.ID] = true
		}
		for id := range fed {
			if !seen[id] {
				t.Fatalf("%s: span %d was fed and is gone", when, id)
			}
		}
	}

	var last core.StreamStats
	var foldsBuffered, foldsPending, foldsDegraded int
	var tip vclock.Time
	malformed := uint64(1) << 40
	for i, b := range batches {
		for _, s := range b {
			tip = max(tip, s.Begin)
		}
		if i%8 == 7 {
			// Behind the release floor and ahead of the watermark; both end
			// at 1, far behind any horizon.
			b = append(slices.Clone(b),
				&trace.Span{ID: malformed, Level: trace.LevelKernel, Begin: tip - 40*window, End: 1},
				&trace.Span{ID: malformed + 1, Level: trace.LevelKernel, Begin: tip + window, End: 1})
			malformed += 2
		}
		for _, s := range b {
			fed[s.ID] = true
		}
		sc.Feed(b...)
		if i%8 == 7 {
			sc.Checkpoint() // a fold with the malformed pair still waiting
		}

		st := sc.Stats()
		if st.Live+st.Checkpointed != len(fed) {
			t.Fatalf("batch %d: live %d + checkpointed %d = %d, fed %d",
				i, st.Live, st.Checkpointed, st.Live+st.Checkpointed, len(fed))
		}
		if st.Checkpointed != last.Checkpointed || st.Compactions != last.Compactions {
			exactlyOnce(fmt.Sprintf("after the fold in batch %d", i))
			if st.Buffered > 0 {
				foldsBuffered++
			}
			if st.Stragglers > last.Stragglers {
				foldsPending++
			}
			if st.DegradedWindows > last.DegradedWindows {
				foldsDegraded++
			}
		}
		last = st
	}
	if foldsBuffered == 0 || foldsPending == 0 || foldsDegraded == 0 {
		t.Fatalf("folds never ran beside a non-empty buffer (%d), new stragglers (%d) and new degraded windows (%d)",
			foldsBuffered, foldsPending, foldsDegraded)
	}
	t.Logf("%+v; folds beside a buffer %d, new stragglers %d, new windows %d", last, foldsBuffered, foldsPending, foldsDegraded)
	sc.Flush()
	sc.Checkpoint()
	if st := sc.Stats(); st.Live+st.Checkpointed != len(fed) {
		t.Fatalf("after Flush: live %d + checkpointed %d, fed %d", st.Live, st.Checkpointed, len(fed))
	}
	exactlyOnce("after Flush")
}

// The tap under load: concurrent tracers publish into a Memory-mode
// tenant's collector, tapped, while Checkpoint, Stats, and snapshot
// readers run — the -race exercise for the Publish/tap/Checkpoint surface.
// The tap must see every span exactly once.
func TestMemoryTapStreamCheckpointConcurrently(t *testing.T) {
	const publishers = 4
	const perPublisher = 500

	tn := trace.NewServer().Tenant(trace.DefaultTenant)
	sc := core.NewStreamCorrelator(core.StreamOptions{
		Isolated:      true, // publishers keep their spans; correlate copies
		ReorderWindow: 512,
		Retain:        512,
	})
	tn.SetTap(sc)
	mem := tn.Collector()

	var wg sync.WaitGroup
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := trace.NewTracer(fmt.Sprintf("pub-%d", w), trace.LevelLayer, mem)
			base := vclock.Time(w * 11)
			for i := 0; i < perPublisher; i++ {
				sp := tr.StartSpan("work", base)
				tr.FinishSpan(sp, base+5)
				base += 7
			}
		}(w)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			sc.Checkpoint()
			sc.Stats()
			sc.SnapshotTrace()
			tn.View().Trace()
		}
	}()
	wg.Wait()
	<-done
	sc.Flush()

	if got := len(tn.View().Trace().Spans); got != publishers*perPublisher {
		t.Fatalf("collector holds %d spans, want %d", got, publishers*perPublisher)
	}
	st := sc.Stats()
	if st.Fed != publishers*perPublisher {
		t.Fatalf("tap fed the correlator %d spans, want %d (lost or double-tapped)",
			st.Fed, publishers*perPublisher)
	}
	if got := len(sc.Trace().Spans); got != publishers*perPublisher {
		t.Fatalf("correlator trace has %d spans, want %d", got, publishers*perPublisher)
	}
}

// The isolation contract under -race: an Isolated correlator copies span
// headers and shares the payload with the raw store, so the rule is that a
// span's payload is immutable once published and the correlator writes
// only ParentID, on its own copy. Publishers land batches in a tapped
// Memory-mode tenant while raw-store readers and SnapshotTrace readers iterate Tags and
// Metrics and the stream folds; the raw spans must stay unparented, the
// correlator's copies must resolve, the payloads must compare equal, and
// the race detector must have nothing to say.
func TestIsolatedCorrelatorSharesPayloadReadOnly(t *testing.T) {
	const publishers = 4
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace:     payloadTrace(16_000, 9),
		BatchSize: 64, ReorderSkew: 48, Seed: 9,
	})
	want := batchParents(batches)

	tn := trace.NewServer().Tenant(trace.DefaultTenant)
	// The window absorbs most of the skew the racing publishers add, so the
	// stream folds as it goes; what it misses repairs as stragglers.
	sc := core.NewStreamCorrelator(core.StreamOptions{Isolated: true, ReorderWindow: 4_096, Retain: 256})
	tn.SetTap(sc)
	mem := tn.Collector()

	readPayload := func(spans []*trace.Span) (n int) {
		for _, s := range spans {
			n += len(s.Name)
			for _, tag := range s.Tags {
				n += len(tag.Key) + len(tag.Value)
			}
			for _, m := range s.Metrics {
				n += len(m.Key) + int(m.Value)
			}
		}
		return n
	}

	next := make(chan []*trace.Span)
	var pubs sync.WaitGroup
	for w := 0; w < publishers; w++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for b := range next {
				mem.Publish(b...)
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, read := range []func(){
		func() { readPayload(tn.View().Trace().Spans) },
		func() {
			snap := sc.SnapshotTrace().Spans
			readPayload(snap)
			for _, s := range snap {
				s.ParentID = 0 // the snapshot's headers are the caller's
			}
		},
	} {
		readers.Add(1)
		go func(read func()) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}(read)
	}
	for _, b := range batches {
		next <- b
	}
	close(next)
	pubs.Wait()
	close(stop)
	readers.Wait()
	sc.Flush()

	if st := sc.Stats(); st.Checkpointed == 0 && st.Reopens == 0 {
		t.Fatalf("the stream never folded: %+v", st)
	}
	raw := make(map[uint64]*trace.Span, len(want))
	for _, s := range tn.View().Trace().Spans {
		if s.ParentID != 0 {
			t.Fatalf("raw span %d got parent %d: the correlator wrote through its copy", s.ID, s.ParentID)
		}
		raw[s.ID] = s
	}
	got := sc.Trace().Spans
	if len(got) != len(want) || len(raw) != len(want) {
		t.Fatalf("correlator holds %d spans, raw store %d, published %d", len(got), len(raw), len(want))
	}
	for _, s := range got {
		if s.ParentID != want[s.ID] {
			t.Fatalf("span %d: isolated stream parent %d, batch parent %d", s.ID, s.ParentID, want[s.ID])
		}
		r := raw[s.ID]
		if s == r {
			t.Fatalf("span %d: the correlator holds the raw store's span, not a copy", s.ID)
		}
		if s.Name != r.Name || !slices.Equal(s.Tags, r.Tags) || !slices.Equal(s.Metrics, r.Metrics) {
			t.Fatalf("span %d: payload differs between the raw store and the correlator", s.ID)
		}
	}
}

// Isolated mode copies headers: the fed spans stay untouched, the
// correlated copies live inside the correlator.
func TestStreamCorrelatorIsolated(t *testing.T) {
	orig := []*trace.Span{
		{ID: 1, Level: trace.LevelModel, Begin: 0, End: 100},
		{ID: 2, Level: trace.LevelLayer, Begin: 10, End: 50},
	}
	sc := core.NewStreamCorrelator(core.StreamOptions{Isolated: true})
	sc.Feed(orig...)
	sc.Flush()
	if orig[1].ParentID != 0 {
		t.Fatal("isolated correlator wrote through to the fed span")
	}
	if got := sc.Trace().SpansByID()[2].ParentID; got != 1 {
		t.Fatalf("isolated copy not correlated: parent = %d", got)
	}
}

func ExampleStreamCorrelator() {
	sc := core.NewStreamCorrelator(core.StreamOptions{})
	sc.Feed(
		&trace.Span{ID: 1, Level: trace.LevelModel, Name: "model_prediction", Begin: 0, End: 100},
		&trace.Span{ID: 2, Level: trace.LevelLayer, Name: "conv1", Begin: 10, End: 40},
	)
	sc.Feed(
		&trace.Span{ID: 3, Level: trace.LevelKernel, Kind: trace.KindLaunch, Name: "cudaLaunchKernel", Begin: 12, End: 14, CorrelationID: 1},
		&trace.Span{ID: 4, Level: trace.LevelKernel, Kind: trace.KindExec, Name: "gemm", Begin: 14, End: 30, CorrelationID: 1},
	)
	sc.Flush()
	tr := sc.Trace()
	fmt.Println("conv1 parent:", tr.Find("conv1").ParentID)
	fmt.Println("gemm parent:", tr.Find("gemm").ParentID)
	// Output:
	// conv1 parent: 1
	// gemm parent: 2
}

// A batch that releases whole — a zero window, as a profiled trace is
// correlated — is released in sweep order however it arrived: spans that
// share a begin release outer level first, so a launch beginning with its
// layer and model still nests under the layer.
func TestOneBatchReleasesInSweepOrder(t *testing.T) {
	batch := []*trace.Span{ // the reverse of sweep order
		{ID: 4, Level: trace.LevelKernel, Kind: trace.KindExec, Name: "kernel", Begin: 5, End: 9, CorrelationID: 1},
		{ID: 3, Level: trace.LevelKernel, Kind: trace.KindLaunch, Name: "cudaLaunchKernel", Begin: 0, End: 2, CorrelationID: 1},
		{ID: 2, Level: trace.LevelLayer, Name: "conv", Begin: 0, End: 50},
		{ID: 1, Level: trace.LevelModel, Name: "model_prediction", Begin: 0, End: 100},
	}
	want := batchParents([][]*trace.Span{batch})
	if want[3] != 2 || want[4] != 2 || want[2] != 1 {
		t.Fatalf("batch reference parents %v, want the launch and exec under the layer, the layer under the model", want)
	}
	sc := core.NewStreamCorrelator(core.StreamOptions{})
	sc.Feed(cloneBatch(batch)...)
	sc.Flush()
	for _, s := range sc.Trace().Spans {
		if s.ParentID != want[s.ID] {
			t.Errorf("span %d: parent %d, batch parent %d", s.ID, s.ParentID, want[s.ID])
		}
	}
}
