package trace

import (
	"math/rand"
	"sort"
	"testing"

	"xsp/internal/vclock"
)

// legacyTrace is the reference Memory.Trace: every collected span in
// publish order, stable-sorted over the whole timeline by SortByBegin.
func legacyTrace(m *Memory) *Trace {
	m.mu.Lock()
	t := &Trace{Spans: append([]*Span(nil), m.spans...)}
	m.mu.Unlock()
	t.SortByBegin()
	return t
}

// populate fills the collector from several publishers, one after the
// other: sorted per-tracer streams whose timelines interleave, plus
// (optionally) one out-of-order batch.
func populate(m *Memory, publishers, each int, outOfOrder bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < publishers; p++ {
		tr := NewTracer("p", Level(p%4+1), m)
		cursor := vclock.Time(p)
		for i := 0; i < each; i++ {
			s := tr.StartSpan("s", cursor)
			tr.FinishSpan(s, cursor+vclock.Time(1+rng.Intn(9)))
			cursor += vclock.Time(1 + rng.Intn(5))
		}
	}
	if outOfOrder {
		batch := make([]*Span, each)
		for i := range batch {
			batch[i] = &Span{ID: NewSpanID(), Level: LevelKernel, Name: "ooo",
				Begin: vclock.Time(rng.Intn(each * 3)), End: vclock.Time(each * 4)}
		}
		m.Publish(batch...)
	}
}

// The snapshot must be exactly what a stable re-sort of the whole timeline
// produces: same spans, same canonical order, for sorted and out-of-order
// contents alike.
func TestMemoryTraceMatchesLegacySort(t *testing.T) {
	for _, outOfOrder := range []bool{false, true} {
		m := NewMemory()
		populate(m, 7, 200, outOfOrder, 42)
		got, want := m.Trace(), legacyTrace(m)
		if len(got.Spans) != len(want.Spans) {
			t.Fatalf("outOfOrder=%v: merged %d spans, legacy %d", outOfOrder, len(got.Spans), len(want.Spans))
		}
		for i := range want.Spans {
			if got.Spans[i] != want.Spans[i] {
				t.Fatalf("outOfOrder=%v: span %d differs: merged %d@%d, legacy %d@%d",
					outOfOrder, i, got.Spans[i].ID, got.Spans[i].Begin, want.Spans[i].ID, want.Spans[i].Begin)
			}
		}
	}
}

// Trace must not hand the caller a slice aliased to the collector's:
// appending to the returned trace while a publisher keeps publishing would
// otherwise corrupt the collector.
func TestMemoryTraceOwnsItsSlice(t *testing.T) {
	m := NewMemory()
	m.Publish(&Span{ID: 1, Begin: 0, End: 1})
	tr := m.Trace()
	tr.Spans = append(tr.Spans, &Span{ID: 99})
	m.Publish(&Span{ID: 2, Begin: 2, End: 3})
	after := m.Trace()
	if len(after.Spans) != 2 || after.Spans[0].ID != 1 || after.Spans[1].ID != 2 {
		t.Fatalf("collector corrupted by append to a returned trace: %+v", after.Spans)
	}
}

func TestMergeRunsEdgeCases(t *testing.T) {
	if got := MergeRuns(nil); got != nil {
		t.Fatalf("empty merge = %v", got)
	}
	a := &Span{ID: 1, Begin: 3}
	b := &Span{ID: 2, Begin: 1}
	got := MergeRuns([][]*Span{{a, b}}) // single unsorted run
	if got[0] != b || got[1] != a {
		t.Fatal("single-run merge did not sort")
	}
	// Ties across runs keep run order (the old stable-sort behavior):
	// identical keys resolve toward the earlier run.
	x := &Span{ID: 5, Begin: 7}
	y := &Span{ID: 5, Begin: 7}
	got = MergeRuns([][]*Span{{x}, {y}})
	if got[0] != x || got[1] != y {
		t.Fatal("cross-run tie did not keep run order")
	}
}

// BenchmarkMemoryTrace measures repeated snapshots of a populated
// collector — the correlate-as-you-ingest read pattern — when one tracer
// published it in order (Trace copies and scans) and when eight tracers'
// timelines interleave in it (Trace copies and sorts).
func BenchmarkMemoryTrace(b *testing.B) {
	const total = 100_000
	run := func(b *testing.B, publishers int) {
		m := NewMemory()
		populate(m, publishers, total/publishers, false, 7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tr := m.Trace(); len(tr.Spans) != total {
				b.Fatalf("snapshot lost spans: %d", len(tr.Spans))
			}
		}
	}
	b.Run("in-order/100k", func(b *testing.B) { run(b, 1) })
	b.Run("interleaved/100k", func(b *testing.B) { run(b, 8) })
}

// sortSpansCanonicalBySlice is the reflection-based stable sort
// sortSpansCanonical replaced, kept as its reference.
func sortSpansCanonicalBySlice(spans []*Span) {
	sort.SliceStable(spans, func(i, j int) bool { return CanonicalLess(spans[i], spans[j]) })
}

// Same comparator, both sorts stable: the order must be the old one span
// for span — on shuffled batches dense with (Begin, Level) ties the ID
// decides, with duplicate IDs among them (full ties, which only stability
// orders), and on batches already in order, which are now left alone.
func TestSortSpansCanonicalMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{0, 1, 2, 13, 64, 257, 2048} {
		for round := 0; round < 6; round++ {
			batch := make([]*Span, n)
			for i := range batch {
				batch[i] = &Span{
					ID:    uint64(1 + rng.Intn(n/2+1)), // collides: full ties
					Begin: vclock.Time(rng.Intn(n/8 + 1)),
					Level: Level(rng.Intn(3)),
					End:   vclock.Time(rng.Intn(100)),
				}
			}
			if round%3 == 2 {
				sortSpansCanonicalBySlice(batch) // the presorted shape
			}
			got, want := append([]*Span(nil), batch...), append([]*Span(nil), batch...)
			sortSpansCanonical(got)
			sortSpansCanonicalBySlice(want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d spans, round %d: position %d holds span %d (begin %d level %d), the old sort put span %d (begin %d level %d) there",
						n, round, i, got[i].ID, got[i].Begin, got[i].Level, want[i].ID, want[i].Begin, want[i].Level)
				}
			}
		}
	}
}
