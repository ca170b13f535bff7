package trace

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"xsp/internal/vclock"
)

// TestRecycledEntriesFeedTheNextDecode: a recycled span's Tags and Metrics
// arrays go on the free list by length, cleared (poisoned under -race), and
// the next recycling decode hands each new span the arrays its record's
// counts fit before it carves the rest — a length past maxPieceLen always
// carved. The list holds at most maxFreeEntries entries.
func TestRecycledEntriesFeedTheNextDecode(t *testing.T) {
	freeSpans.Lock()
	freeSpans.tags, freeSpans.mets, freeSpans.entries = [maxPieceLen + 1][][]Tag{}, [maxPieceLen + 1][][]Metric{}, 0
	freeSpans.Unlock()

	shape := []int{0, 1, 2, 3, 16, maxPieceLen + 1} // entries of each kind, one span each
	batch := func(gen int) []*Span {
		spans := make([]*Span, len(shape))
		for i, n := range shape {
			// Begins fall with the record index, so the decode fills its
			// slots in the reverse of record order: a piece must follow its
			// record there.
			s := &Span{ID: uint64(i + 1), Name: "s", Begin: vclock.Time(10 - i), End: 20}
			for j := range n {
				s.SetTag(fmt.Sprint("k", j), fmt.Sprint(gen))
				s.SetMetric(fmt.Sprint("m", j), float64(gen))
			}
			spans[i] = s
		}
		return spans
	}
	decode := func(spans []*Span) []*Span {
		tr, err := DecodeBinary(bytes.NewReader(AppendBinaryFrameTenant(nil, "", spans)))
		if err != nil {
			t.Fatal(err)
		}
		return tr.Spans
	}

	first := decode(batch(1))
	freed := make(map[*Tag]bool)
	var held [][]Tag
	kept := 0
	for _, s := range first {
		if n := len(s.Tags); n > 0 && n <= maxPieceLen {
			freed[&s.Tags[0]] = true
			kept += 2 * n
		}
		held = append(held, s.Tags)
	}
	RecycleSpans(first)
	if freeSpans.entries != kept {
		t.Fatalf("%d entries on the free list, want %d", freeSpans.entries, kept)
	}
	for _, tags := range held {
		for _, tag := range tags {
			if want := (Tag{}); raceEnabled && tag != poisonTag || !raceEnabled && tag != want {
				t.Fatalf("a freed entry reads %v", tag)
			}
		}
	}

	want := batch(2)
	second := decode(want)
	for _, s := range second {
		w := want[s.ID-1]
		if !slices.Equal(s.Tags, w.Tags) || !slices.Equal(s.Metrics, w.Metrics) {
			t.Fatalf("span %d decoded tags %v metrics %v, want %v %v", s.ID, s.Tags, s.Metrics, w.Tags, w.Metrics)
		}
		if n := len(s.Tags); n > 0 && freed[&s.Tags[0]] != (n <= maxPieceLen) {
			t.Fatalf("span %d's %d tags: refilled %v, want %v", s.ID, n, freed[&s.Tags[0]], n <= maxPieceLen)
		}
	}
	if freeSpans.entries != 0 {
		t.Fatalf("%d entries left on the free list after a decode of the same shape", freeSpans.entries)
	}

	var many []*Span
	for range 2 * maxFreeEntries / (2 * 16) {
		many = append(many, decode(batch(3))...)
	}
	RecycleSpans(many)
	if freeSpans.entries > maxFreeEntries || freeSpans.entries < maxFreeEntries-2*maxPieceLen {
		t.Fatalf("%d entries on the free list, bound %d", freeSpans.entries, maxFreeEntries)
	}
}
