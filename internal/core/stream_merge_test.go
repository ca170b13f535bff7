package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// keyed is one span of a segment as the merge must carry it: its id and the
// owned bit its record holds.
type keyed struct {
	id    uint64
	owned bool
}

// mergeSegmentsByMap is the map-based segment merge mergeSegments
// replaced, kept as its reference: the segments' spans, decoded, go through
// trace.MergeRuns and every owned bit is looked up by span pointer in a set
// built from both inputs.
func mergeSegmentsByMap(a, b ckptSegment) (merged []keyed, replaced []uint64) {
	ownedSet := make(map[*trace.Span]bool)
	runs := decodeRuns([]ckptSegment{a, b})
	for k, seg := range []ckptSegment{a, b} {
		for i, s := range runs[k] {
			if blk, r := seg.at(i); blk.Owned(r) {
				ownedSet[s] = true
			}
		}
		replaced = append(replaced, seg.replaced...)
		if seg.fileID != 0 {
			replaced = append(replaced, seg.fileID)
		}
	}
	for _, s := range trace.MergeRuns(runs) {
		merged = append(merged, keyed{s.ID, ownedSet[s]})
	}
	return merged, replaced
}

// randomSegment draws a canonically sorted segment of n spans whose
// (Begin, Level) keys come from a range narrow enough that two segments
// drawn from it collide on them, so that the ID decides; ids are taken from
// the shared pool, so no two spans of a pair tie completely. shift moves
// the whole segment later in time. Every other segment keeps its spans in
// two blocks, alternately, so that its references are not its blocks'
// records in order.
func randomSegment(rng *rand.Rand, n int, shift vclock.Time, ids *[]uint64) ckptSegment {
	seg := randomOneBlock(rng, n, shift, ids)
	if rng.Intn(2) == 0 && n > 1 {
		seg.blocks, seg.runs = splitAlternately(seg)
	}
	if rng.Intn(3) > 0 {
		seg.fileID = 1 + uint64(rng.Intn(1000))
	}
	for i := rng.Intn(3); i > 0; i-- {
		seg.replaced = append(seg.replaced, 1+uint64(rng.Intn(1000)))
	}
	return seg
}

// randomOneBlock is randomSegment's segment before it is split or given
// files: all of one block.
func randomOneBlock(rng *rand.Rand, n int, shift vclock.Time, ids *[]uint64) ckptSegment {
	var spans []*trace.Span
	for i := 0; i < n; i++ {
		k := rng.Intn(len(*ids))
		id := (*ids)[k]
		(*ids)[k] = (*ids)[len(*ids)-1]
		*ids = (*ids)[:len(*ids)-1]
		spans = append(spans, &trace.Span{
			ID:    id,
			Begin: shift + vclock.Time(rng.Intn(n/3+2)),
			Level: trace.Level(rng.Intn(3)),
			End:   vclock.Time(rng.Intn(100)),
		})
	}
	slices.SortFunc(spans, func(x, y *trace.Span) int {
		switch {
		case trace.CanonicalLess(x, y):
			return -1
		case trace.CanonicalLess(y, x):
			return 1
		}
		return 0
	})
	owned := make(map[*trace.Span]bool)
	for _, s := range spans {
		owned[s] = rng.Intn(2) == 0
	}
	return segmentOf(new(history).hold(func(buf []byte) []byte {
		return trace.AppendSpanBlock(buf, spans, func(i int) bool { return owned[spans[i]] })
	}, false))
}

// splitAlternately re-homes a one-block segment's records in two blocks,
// even positions and odd, and returns them with the runs that keep the
// segment's order: one a record, the worst case runs have.
func splitAlternately(seg ckptSegment) ([]heldBlock, []refRun) {
	var halves [2][]int
	runs := make([]refRun, seg.n)
	for i := range runs {
		runs[i] = refRun{at: uint32(i), block: uint32(i % 2), first: uint32(i / 2)}
		halves[i%2] = append(halves[i%2], i)
	}
	blocks := make([]heldBlock, 2)
	for h := range blocks {
		blocks[h] = new(history).hold(func(buf []byte) []byte {
			blk, err := seg.gather(halves[h])
			if err != nil {
				panic(err)
			}
			return append(buf, blk...)
		}, false)
	}
	return blocks, runs
}

// Property: the two-pointer merge that moves runs is the map-based
// merge of decoded spans it replaced — same span order (the ID tie-break
// across inputs included), same owned bits, same replaced list — over random
// segment pairs with empty sides and lengths on both sides of a bitset word,
// of one block or two, interleaved span by span (both drawn from one stretch
// of time) and in long runs (the second following the first with a short
// overlap, the ladder's shape).
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
				want, wantReplaced := mergeSegmentsByMap(a, b)
				got := mergeSegments(a, b)
				if got.len() != len(want) {
					t.Fatalf("%d+%d spans: merged %d, reference %d", na, nb, got.len(), len(want))
				}
				for i, w := range want {
					blk, r := got.at(i)
					if g := (keyed{blk.ID(r), blk.Owned(r)}); g != w {
						t.Fatalf("%d+%d spans: position %d holds span %d (begin %d level %d owned %v), reference span %d (owned %v)",
							na, nb, i, g.id, blk.Begin(r), blk.Level(r), g.owned, w.id, w.owned)
					}
				}
				if !slices.Equal(got.replaced, wantReplaced) {
					t.Fatalf("%d+%d spans: replaced %v, reference %v", na, nb, got.replaced, wantReplaced)
				}
				if got.fileID != 0 {
					t.Fatalf("%d+%d spans: merged segment claims file %d before it is written", na, nb, got.fileID)
				}
			}
		}
	}
}

// A remainder keeps a block as it is while at least half its records are
// referenced, gathers the survivors of a block that falls below into a new,
// fully referenced one, and drops a block nothing references — and whatever
// it does to the blocks, its spans, their order and their owned bits are the
// input's less the dropped ones.
func TestWithoutKeepsBlocksHalfReferenced(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ids := make([]uint64, 400)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	// Two one-block segments, far enough apart that the merge is a's records,
	// then b's: positions [0, 100) are block 0, [100, 300) block 1.
	a, b := randomOneBlock(rng, 100, 0, &ids), randomOneBlock(rng, 200, 1_000, &ids)
	seg := mergeSegments(a, b)
	want := func(seg ckptSegment, drop []int) []keyed {
		var out []keyed
		for i := range seg.len() {
			if _, dropped := slices.BinarySearch(drop, i); !dropped {
				blk, r := seg.at(i)
				out = append(out, keyed{blk.ID(r), blk.Owned(r)})
			}
		}
		return out
	}
	span := func(lo, hi int) (drop []int) {
		for i := lo; i < hi; i++ {
			drop = append(drop, i)
		}
		return drop
	}
	for _, tc := range []struct {
		name     string
		drop     []int
		blocks   []int // records of each block the remainder holds
		gathered bool  // the last of them is new
	}{
		{"a tenth of each: both blocks stay", append(span(0, 10), span(100, 120)...), []int{100, 200}, false},
		{"exactly half of the first: it stays", span(0, 50), []int{100, 200}, false},
		{"over half of the first: its survivors are gathered", span(0, 51), []int{200, 49}, true},
		{"all of the first: it leaves", span(0, 100), []int{200}, false},
		{"over half of both: one gathered block", append(span(10, 100), span(100, 290)...), []int{20}, true},
	} {
		rest := new(history).without(seg, tc.drop)
		var got []keyed
		for i := range rest.len() {
			blk, r := rest.at(i)
			got = append(got, keyed{blk.ID(r), blk.Owned(r)})
		}
		if !slices.Equal(got, want(seg, tc.drop)) {
			t.Fatalf("%s: the remainder is not the segment less the dropped spans", tc.name)
		}
		var sizes []int
		for b := range rest.blocks {
			sizes = append(sizes, rest.blocks[b].Len())
		}
		if !slices.Equal(sizes, tc.blocks) {
			t.Fatalf("%s: remainder's blocks hold %v records, want %v", tc.name, sizes, tc.blocks)
		}
		last := rest.blocks[len(rest.blocks)-1].Bytes()
		isNew := &last[0] != &a.blocks[0].Bytes()[0] && &last[0] != &b.blocks[0].Bytes()[0]
		if isNew != tc.gathered {
			t.Fatalf("%s: last block newly gathered = %v, want %v", tc.name, isNew, tc.gathered)
		}
		if seg.len() != 300 || len(seg.blocks) != 2 {
			t.Fatalf("%s: without edited the segment it was called on", tc.name)
		}
	}
}

// Folds of successive stretches of a stream merge into one run per fold:
// however the ladder pairs them, every merge appends whole runs, so what the
// ladder holds is O(folds) runs, not a reference per span.
func TestSuccessiveFoldsMergeToOneRunEach(t *testing.T) {
	const folds, size = 37, 100
	h := new(history)
	id := uint64(0)
	for k := range folds {
		spans := make([]*trace.Span, size)
		for i := range spans {
			id++
			spans[i] = &trace.Span{ID: id, Begin: vclock.Time(k*size + i), End: vclock.Time(k*size + i + 1)}
		}
		h.add(spans, func(i int) bool { return i%3 == 0 }, false)
	}
	runs, blocks := 0, 0
	for i := range h.segs {
		runs += len(h.segs[i].runs)
		blocks += len(h.segs[i].blocks)
	}
	if h.compactions == 0 || len(h.segs) >= folds {
		t.Fatalf("%d folds made %d compactions into %d segments: nothing merged", folds, h.compactions, len(h.segs))
	}
	if runs != folds || blocks != folds {
		t.Fatalf("%d successive folds merged into %d runs over %d blocks, want %d of each", folds, runs, blocks, folds)
	}
	var got []uint64
	if err := merge(h.segs, nil, func(blk *trace.SpanBlock, i int, _ *trace.Span) bool {
		if blk.Owned(i) != ((blk.ID(i)-1)%size%3 == 0) {
			t.Fatalf("span %d lost its owned bit", blk.ID(i))
		}
		got = append(got, blk.ID(i))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != folds*size || !slices.IsSorted(got) {
		t.Fatalf("the ladder walks %d spans, in order %v; want %d in order", len(got), slices.IsSorted(got), folds*size)
	}
}

// Dropping one contiguous range of spans cuts at most one run in two,
// whatever blocks the remainder then gathers; and runs of one record — two
// blocks taking turns, the worst case — cost 12 bytes a record, merged or
// not.
func TestRunsCutOnceAndCostAtMostARecord(t *testing.T) {
	if size := unsafe.Sizeof(refRun{}); size != 12 {
		t.Fatalf("a run is %d bytes, want 12", size)
	}
	rng := rand.New(rand.NewSource(48))
	for round := 0; round < 40; round++ {
		ids := make([]uint64, 600)
		for i := range ids {
			ids[i] = uint64(i + 1)
		}
		a, b := randomSegment(rng, 1+rng.Intn(300), 0, &ids), randomSegment(rng, 1+rng.Intn(300), vclock.Time(rng.Intn(50)), &ids)
		seg := mergeSegments(a, b)
		if len(seg.runs) > seg.len() {
			t.Fatalf("round %d: %d runs name %d spans", round, len(seg.runs), seg.len())
		}
		lo := rng.Intn(seg.len())
		hi := lo + 1 + rng.Intn(seg.len()-lo)
		var drop []int
		for i := lo; i < hi; i++ {
			drop = append(drop, i)
		}
		rest := new(history).without(seg, drop)
		if len(rest.runs) > len(seg.runs)+1 {
			t.Fatalf("round %d: dropping [%d, %d) of %d spans made %d runs of %d", round, lo, hi, seg.len(), len(rest.runs), len(seg.runs))
		}
		for i := range rest.len() {
			j := i
			if i >= lo {
				j += hi - lo
			}
			x, r := rest.at(i)
			y, q := seg.at(j)
			if x.ID(r) != y.ID(q) || x.Owned(r) != y.Owned(q) {
				t.Fatalf("round %d: the remainder's span %d is not the segment's %d", round, i, j)
			}
		}
	}

	ids := make([]uint64, 1_200)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	alternating := func() ckptSegment {
		seg := randomOneBlock(rng, 300, 0, &ids)
		seg.blocks, seg.runs = splitAlternately(seg)
		return seg
	}
	x, y := alternating(), alternating()
	for _, seg := range []ckptSegment{x, mergeSegments(x, y), mergeSegments(randomOneBlock(rng, 300, 0, &ids), randomOneBlock(rng, 300, 0, &ids))} {
		if size := len(seg.runs) * int(unsafe.Sizeof(refRun{})); size > 12*seg.len() {
			t.Fatalf("%d spans in %d blocks hold %d bytes of runs, over 12 a span", seg.len(), len(seg.blocks), size)
		}
	}
}

// Property: the read merge is trace.MergeRuns over the decoded segments and
// the live run, in that order — keys that collide on begin and level, and
// live spans that tie a folded one completely (a duplicate id), which go
// after it — and the view it walks frames to the bytes its decoded spans
// do, with a live tail and with none (a history alone).
func TestPinnedWalkIsMergeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for round := 0; round < 40; round++ {
		ids := make([]uint64, 2_000)
		for i := range ids {
			ids[i] = uint64(i + 1)
		}
		p := &pinned{}
		for k := rng.Intn(6); k > 0; k-- {
			p.segs = append(p.segs, randomSegment(rng, rng.Intn(300), vclock.Time(rng.Intn(50)), &ids))
		}
		if round%2 == 1 {
			for _, s := range trace.MergeRuns(decodeRuns(p.segs)) {
				if rng.Intn(8) == 0 { // a duplicate of a folded span
					p.live = append(p.live, &trace.Span{ID: s.ID, Begin: s.Begin, Level: s.Level, Name: "live"})
				}
			}
			for i := rng.Intn(200); i > 0; i-- {
				p.live = append(p.live, &trace.Span{ID: ids[i], Begin: vclock.Time(rng.Intn(150)), Level: trace.Level(rng.Intn(3)), Name: "live"})
			}
			p.live = trace.MergeRuns([][]*trace.Span{p.live})
		}

		type item struct {
			id   uint64
			live bool
		}
		var want, got []item
		for _, s := range trace.MergeRuns(append(decodeRuns(p.segs), p.live)) {
			want = append(want, item{s.ID, s.Name == "live"})
		}
		p.walk(func(blk *trace.SpanBlock, i int, s *trace.Span) bool {
			if blk != nil {
				got = append(got, item{blk.ID(i), false})
			} else {
				got = append(got, item{s.ID, true})
			}
			return true
		})
		if !slices.Equal(got, want) {
			at := 0
			for at < min(len(got), len(want)) && got[at] == want[at] {
				at++
			}
			t.Fatalf("round %d: %d segments and %d live spans walk to %d spans, MergeRuns gives %d: first difference at %d: %v, want %v",
				round, len(p.segs), len(p.live), len(got), len(want), at, got[at:min(at+3, len(got))], want[at:min(at+3, len(want))])
		}

		for _, raw := range []bool{false, true} {
			view := trace.View{Walk: p.walk, Raw: raw}
			var frame bytes.Buffer
			if err := view.WriteBinary(&frame); err != nil {
				t.Fatal(err)
			}
			if want := trace.AppendBinaryFrameTenant(nil, "", view.Trace().Spans); !bytes.Equal(frame.Bytes(), want) {
				t.Fatalf("round %d, raw %v: the streamed frame differs from the decoded view's", round, raw)
			}
		}
	}
}
