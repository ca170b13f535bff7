package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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

// Same order as the reflection-based stable sort, span for span, from both
// users of SortAdaptive in this package: sortSpansCanonical over pointers,
// and DecodeBinary, which orders record keys and fills its slots in their
// order — its batch must be a record-order decode (DecodeSpanBlock) stably
// sorted. The shapes: reversed (the insertion sort spends its budget and
// falls back), presorted, dense (Begin, Level) ties with duplicate IDs
// (full ties, which only stability orders: End tells the spans apart), and
// random. Some spans carry tags and metrics, so a decode's entries must
// follow their records through the permutation.
func TestSortSpansCanonicalMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	shapes := []struct {
		name string
		span func(i, n int) *Span
	}{
		{"reversed", func(i, n int) *Span {
			return &Span{ID: uint64(i + 1), Begin: vclock.Time(2 * (n - i)), Level: Level(i % 3)}
		}},
		{"presorted", func(i, n int) *Span {
			return &Span{ID: uint64(i/2 + 1), Begin: vclock.Time(i / 4), Level: Level(i / 2 % 2)} // pairs of full ties
		}},
		{"ties", func(i, n int) *Span {
			return &Span{ID: uint64(1 + rng.Intn(n/2+1)), Begin: vclock.Time(rng.Intn(n/8 + 1)), Level: Level(rng.Intn(3))}
		}},
		{"random", func(i, n int) *Span {
			return &Span{ID: rng.Uint64(), Begin: vclock.Time(rng.Intn(4 * n)), Level: Level(rng.Intn(5))}
		}},
	}
	for _, shape := range shapes {
		for _, n := range []int{0, 1, 2, 13, 1024, 65536} {
			batch := make([]*Span, n)
			for i := range batch {
				s := shape.span(i, n)
				s.End = s.Begin + vclock.Time(i) // unique per record
				s.Name = "s"
				if i%5 == 0 {
					s.SetTag("record", fmt.Sprint(i))
					s.SetMetric("i", float64(i))
				}
				batch[i] = s
			}
			got, want := slices.Clone(batch), slices.Clone(batch)
			sortSpansCanonical(got)
			sortSpansCanonicalBySlice(want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, %d spans: position %d holds span %d (begin %d level %d), the old sort put span %d (begin %d level %d) there",
						shape.name, n, i, got[i].ID, got[i].Begin, got[i].Level, want[i].ID, want[i].Begin, want[i].Level)
				}
			}

			frame := AppendBinaryFrameTenant(nil, "", batch)
			tr, err := DecodeBinary(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("%s, %d spans: %v", shape.name, n, err)
			}
			byRecord, _, _, err := DecodeSpanBlock(frame[frameHeaderSize:])
			if err != nil {
				t.Fatalf("%s, %d spans: %v", shape.name, n, err)
			}
			sortSpansCanonicalBySlice(byRecord)
			if len(tr.Spans) != n {
				t.Fatalf("%s: decoded %d spans, want %d", shape.name, len(tr.Spans), n)
			}
			for i, s := range tr.Spans {
				sameSpan(t, s, byRecord[i])
			}
			RecycleSpans(tr.Spans)
			RecycleBatch(tr.Spans)
		}
	}
}
