package core

import (
	"math/rand"
	"slices"
	"testing"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// mergeSegmentsByMap is the map-based segment merge mergeSegments
// replaced, kept as its reference: the spans go through trace.MergeRuns and
// every owned bit is looked up by span pointer in a set built from both
// inputs.
func mergeSegmentsByMap(a, b ckptSegment) ckptSegment {
	ownedSet := make(map[*trace.Span]bool, len(a.spans)+len(b.spans))
	var replaced []uint64
	for _, seg := range []ckptSegment{a, b} {
		for j, s := range seg.spans {
			if seg.owned.has(j) {
				ownedSet[s] = true
			}
		}
		replaced = append(replaced, seg.replaced...)
		if seg.fileID != 0 {
			replaced = append(replaced, seg.fileID)
		}
	}
	spans := trace.MergeRuns([][]*trace.Span{a.spans, b.spans})
	seg := ckptSegment{spans: spans, owned: newOwnedBits(len(spans)), replaced: replaced}
	for i, s := range spans {
		if ownedSet[s] {
			seg.owned.set(i)
		}
	}
	return seg
}

// randomSegment draws a canonically sorted segment of n spans whose
// (Begin, Level) keys come from a range narrow enough that two segments
// drawn from it collide on them, so that the ID decides; ids are taken from
// the shared pool, so no two spans of a pair tie completely. shift moves
// the whole segment later in time.
func randomSegment(rng *rand.Rand, n int, shift vclock.Time, ids *[]uint64) ckptSegment {
	seg := ckptSegment{owned: newOwnedBits(n)}
	for i := 0; i < n; i++ {
		k := rng.Intn(len(*ids))
		id := (*ids)[k]
		(*ids)[k] = (*ids)[len(*ids)-1]
		*ids = (*ids)[:len(*ids)-1]
		seg.spans = append(seg.spans, &trace.Span{
			ID:    id,
			Begin: shift + vclock.Time(rng.Intn(n/3+2)),
			Level: trace.Level(rng.Intn(3)),
			End:   vclock.Time(rng.Intn(100)),
		})
	}
	slices.SortFunc(seg.spans, func(x, y *trace.Span) int {
		switch {
		case trace.CanonicalLess(x, y):
			return -1
		case trace.CanonicalLess(y, x):
			return 1
		}
		return 0
	})
	for i := range seg.spans {
		if rng.Intn(2) == 0 {
			seg.owned.set(i)
		}
	}
	if rng.Intn(3) > 0 {
		seg.fileID = 1 + uint64(rng.Intn(1000))
	}
	for i := rng.Intn(3); i > 0; i-- {
		seg.replaced = append(seg.replaced, 1+uint64(rng.Intn(1000)))
	}
	return seg
}

// Property: the two-pointer merge that carries owned bits is the map-based
// merge it replaced — same span order (the ID tie-break across inputs
// included), same bitset, same replaced list — over random segment pairs
// with empty sides and lengths on both sides of a bitset word, interleaved
// span by span (both drawn from one stretch of time) and in long runs (the
// second following the first with a short overlap, the ladder's shape).
func TestMergeSegmentsCarriesOwnedBits(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	lengths := []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 300}
	for round := 0; round < 4; round++ {
		for _, na := range lengths {
			for _, nb := range lengths {
				ids := make([]uint64, na+nb)
				for i := range ids {
					ids[i] = uint64(i + 1)
				}
				var follow vclock.Time
				if round%2 == 1 {
					follow = vclock.Time(na/3 - 1)
				}
				a, b := randomSegment(rng, na, 0, &ids), randomSegment(rng, nb, follow, &ids)
				want, got := mergeSegmentsByMap(a, b), mergeSegments(a, b)
				if len(got.spans) != len(want.spans) {
					t.Fatalf("%d+%d spans: merged %d, reference %d", na, nb, len(got.spans), len(want.spans))
				}
				for i, w := range want.spans {
					if g := got.spans[i]; g != w {
						t.Fatalf("%d+%d spans: position %d holds span %d (begin %d level %d), reference span %d (begin %d level %d)",
							na, nb, i, g.ID, g.Begin, g.Level, w.ID, w.Begin, w.Level)
					}
				}
				if !slices.Equal(got.owned, want.owned) {
					t.Fatalf("%d+%d spans: owned bitset %x, reference %x", na, nb, got.owned, want.owned)
				}
				if !slices.Equal(got.replaced, want.replaced) {
					t.Fatalf("%d+%d spans: replaced %v, reference %v", na, nb, got.replaced, want.replaced)
				}
				if got.fileID != 0 {
					t.Fatalf("%d+%d spans: merged segment claims file %d before it is written", na, nb, got.fileID)
				}
			}
		}
	}
}
