package core_test

import (
	"testing"

	"xsp/internal/core"
	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

// The correlator is the trace package's intended load reporter.
var _ trace.LoadReporter = (*core.StreamCorrelator)(nil)

func kernelAt(id uint64, at vclock.Time) *trace.Span {
	return &trace.Span{ID: id, Level: trace.LevelKernel, Name: "k", Begin: at, End: at + 5}
}

// Pressure tracks the live span count against PressureSpans: nominal below
// half, elevated past half, overloaded at the budget — and always nominal
// with no budget configured.
func TestStreamCorrelatorPressureThresholds(t *testing.T) {
	sc := core.NewStreamCorrelator(core.StreamOptions{PressureSpans: 100})
	feed := func(upto uint64) {
		for id := uint64(sc.Stats().Fed) + 1; id <= upto; id++ {
			sc.Feed(kernelAt(id, vclock.Time(10*id)))
		}
	}
	feed(40)
	if got := sc.Pressure(); got != trace.PressureNominal {
		t.Fatalf("40/100 live: pressure %v, want nominal", got)
	}
	feed(60)
	if got := sc.Pressure(); got != trace.PressureElevated {
		t.Fatalf("60/100 live: pressure %v, want elevated", got)
	}
	feed(100)
	if got := sc.Pressure(); got != trace.PressureOverloaded {
		t.Fatalf("100/100 live: pressure %v, want overloaded", got)
	}

	l := sc.Load()
	if l.LiveSpans != 100 || l.Budget != 100 {
		t.Fatalf("Load = %+v, want 100 live against budget 100", l)
	}

	unbounded := core.NewStreamCorrelator(core.StreamOptions{})
	for id := uint64(1); id <= 500; id++ {
		unbounded.Feed(kernelAt(id, vclock.Time(10*id)))
	}
	if got := unbounded.Pressure(); got != trace.PressureNominal {
		t.Fatalf("no budget: pressure %v, want nominal", got)
	}
}

// With Retain set, crossing the pressure budget folds eagerly instead of
// waiting for the amortized fold cadence: live state recovers as soon as
// spans finalize, so a well-behaved stream stays near the budget even
// though the budget is far below the normal fold interval.
func TestStreamCorrelatorPressureFoldsEagerly(t *testing.T) {
	const budget = 50
	sc := core.NewStreamCorrelator(core.StreamOptions{
		Retain:        100, // finalizes all but the last ~10 spans
		PressureSpans: budget,
	})
	maxLive := 0
	for id := uint64(1); id <= 4096; id++ {
		sc.Feed(kernelAt(id, vclock.Time(10*id)))
		if live := sc.Load().LiveSpans; live > maxLive {
			maxLive = live
		}
	}
	// One over the budget can be observed (the feed that crosses it folds
	// within the same call, but the next feed lands before the check);
	// anything clearly past that means the eager fold did not run.
	if maxLive > budget+1 {
		t.Fatalf("live spans peaked at %d with budget %d — eager fold missing", maxLive, budget)
	}
	if got := sc.Pressure(); got == trace.PressureOverloaded {
		t.Fatal("steady-state pressure overloaded — eager fold not recovering")
	}
	// An explicit fold retires everything behind the horizon: back to
	// nominal.
	sc.Checkpoint()
	if got := sc.Pressure(); got != trace.PressureNominal {
		t.Fatalf("post-checkpoint pressure %v, want nominal (%d live)", got, sc.Load().LiveSpans)
	}
	if sc.Stats().Checkpointed == 0 {
		t.Fatal("nothing checkpointed — the test fed past the horizon")
	}
}

// A deep straggler must not read as overload: its repair takes the spans
// its window overlaps out of the checkpoint, not the history, so the live
// count the pressure signal reads stays at tail + window + stragglers. Run
// both ways a repair happens: at feed time, and at Flush (the server's
// ?flush=1) when an open degraded window made the feed skip it — Flush
// does not fold, so there a whole-ladder reopen left the entire history
// live, and the tenant shedding, until the next feed.
func TestDeepStragglerKeepsLiveBounded(t *testing.T) {
	const budget = 4_000
	for _, atFlush := range []bool{false, true} {
		name := "feed"
		if atFlush {
			name = "flush"
		}
		t.Run(name, func(t *testing.T) {
			batches := workload.StreamingArrivals(workload.StreamingSpec{
				Trace: workload.SyntheticSpec{Spans: 40_000, Seed: 11}, BatchSize: 256,
				StragglerWindow: 256, StragglerPos: 0.25, Seed: 12,
			})
			punctual, held := batches[:len(batches)-1], batches[len(batches)-1]
			if atFlush {
				// Two layers crossing past the end of the trace, and a kernel
				// to release them: the window they degrade stays open.
				var end vclock.Time
				for _, b := range punctual {
					for _, s := range b {
						end = max(end, s.End)
					}
				}
				punctual = append(punctual[:len(punctual):len(punctual)], []*trace.Span{
					{ID: 1 << 40, Level: trace.LevelLayer, Name: "a", Begin: end + 10, End: end + 110},
					{ID: 1<<40 + 1, Level: trace.LevelLayer, Name: "b", Begin: end + 60, End: end + 160},
					kernelAt(1<<40+2, end+90),
				})
			}
			all := append(punctual[:len(punctual):len(punctual)], held)
			lo, hi := held[0].Begin, held[0].End
			for _, s := range held {
				lo, hi = min(lo, s.Begin), max(hi, s.End)
			}
			window := 0 // punctual spans overlapping the stragglers' combined window
			for _, b := range punctual {
				for _, s := range b {
					if s.Begin <= hi && s.End >= lo {
						window++
					}
				}
			}

			sc := core.NewStreamCorrelator(core.StreamOptions{ReorderWindow: 16, Retain: 64, PressureSpans: budget})
			feedAll(sc, cloneBatches(punctual))
			sc.Checkpoint()
			before := sc.Stats()
			if before.Checkpointed < 9*budget || before.Live > budget/8 {
				t.Fatalf("history not folded far past the budget %d: %+v", budget, before)
			}
			sc.Feed(cloneBatch(held)...)
			if atFlush {
				if st := sc.Stats(); st.Repaired != 0 || st.DegradedWindows == 0 {
					t.Fatalf("the feed repaired in spite of an open degraded window: %+v", st)
				}
				sc.Flush()
			}
			st, load := sc.Stats(), sc.Load()
			if st.Reopens != 1 || st.Stragglers != len(held) {
				t.Fatalf("want one reopen for %d stragglers: %+v", len(held), st)
			}
			if bound := before.Live + window + len(held); load.LiveSpans > bound || st.Live != load.LiveSpans {
				t.Fatalf("%d spans live after the repair, want at most tail %d + window %d + stragglers %d = %d (history %d)",
					load.LiveSpans, before.Live, window, len(held), bound, st.Fed)
			}
			if got := sc.Pressure(); got != trace.PressureNominal {
				t.Fatalf("pressure %v after a deep straggler with %d of %d live", got, load.LiveSpans, budget)
			}
			sc.Flush()
			assertStreamMatchesBatch(t, sc, all)
		})
	}
}
