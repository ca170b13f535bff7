package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"xsp/internal/segio"
	"xsp/internal/segio/faultfs"
	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// dirSpans draws n spans in canonical order, ids from base on: begins climb
// by 0-3 ticks from at, most spans are short, one in forty reaches a
// window's worth of stream further, and one in three is an owned execution
// span with a correlation id minted in order.
func dirSpans(rng *rand.Rand, n int, base uint64, at vclock.Time) (spans []*trace.Span, owned []bool) {
	for i := range n {
		at += vclock.Time(rng.Intn(4))
		s := &trace.Span{ID: base + uint64(i), Level: trace.Level(rng.Intn(3)), Begin: at, End: at + vclock.Time(rng.Intn(8))}
		if rng.Intn(40) == 0 {
			s.End += vclock.Time(rng.Intn(3 * windowRecords))
		}
		if rng.Intn(3) == 0 {
			s.Kind, s.CorrelationID = trace.KindExec, base+uint64(i)
		}
		spans = append(spans, s)
		owned = append(owned, s.Kind == trace.KindExec || rng.Intn(2) == 0)
	}
	slices.SortFunc(spans, func(x, y *trace.Span) int {
		if trace.CanonicalLess(x, y) {
			return -1
		}
		if trace.CanonicalLess(y, x) {
			return 1
		}
		return 0
	})
	return spans, owned
}

// dirFold is the fresh fold of spans: one block, one run.
func dirFold(h *history, spans []*trace.Span, owned []bool) ckptSegment {
	return segmentOf(h.hold(func(buf []byte) []byte {
		return trace.AppendSpanBlock(buf, spans, func(i int) bool { return owned[i] })
	}, false))
}

// dirShapes returns a segment of every shape a directory step must read
// through, by name: a fresh fold, resident and filed; two folds interleaved
// in stretches of 1 to 1 500 records, so runs of two blocks start and end
// inside their windows, resident and filed; and a remainder of each with one
// span in ten dropped — a filed remainder's runs cut its file's windows.
func dirShapes(t *testing.T, rng *rand.Rand, store SegmentStore) map[string]ckptSegment {
	t.Helper()
	var h history
	shapes := make(map[string]ckptSegment)
	spans, owned := dirSpans(rng, 3*windowRecords+101, 1, 0)
	shapes["fold"] = dirFold(&h, spans, owned)

	spans, owned = dirSpans(rng, 4*windowRecords, 1<<20, 0)
	var sides [2][]*trace.Span
	var sideOwned [2][]bool
	for i, side := 0, 0; i < len(spans); side = 1 - side {
		n := min(1+rng.Intn(1_500), len(spans)-i)
		sides[side] = append(sides[side], spans[i:i+n]...)
		sideOwned[side] = append(sideOwned[side], owned[i:i+n]...)
		i += n
	}
	shapes["interleaved"] = mergeSegments(dirFold(&h, sides[0], sideOwned[0]), dirFold(&h, sides[1], sideOwned[1]))

	for _, name := range []string{"fold", "interleaved"} {
		h.segs = []ckptSegment{shapes[name]}
		if err := h.write(store, func(*ckptSegment) bool { return true }); err != nil {
			t.Fatal(err)
		}
		shapes["filed "+name] = h.segs[0]
	}
	for _, name := range []string{"interleaved", "filed fold", "filed interleaved"} {
		seg := shapes[name]
		var drop []int
		for i := range seg.len() {
			if rng.Intn(10) == 0 {
				drop = append(drop, i)
			}
		}
		shapes[name+" remainder"] = h.without(seg, drop)
	}
	return shapes
}

// A repair's selection steps over a window of records only where the
// directory rules out every record of it that the run reaches: over
// segments of every shape and random windows, it selects what a scan of
// every record selects. A step past the end of a run skips the next run's
// records, which the windows reach too.
func TestOverlappingStepsMatchRecordScan(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	st, _, err := segio.Open(faultfs.New(), segio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	shapes := dirShapes(t, rng, st)
	for name, seg := range shapes {
		var end vclock.Time
		if err := seg.each(func(blk *trace.SpanBlock, i int) bool { end = max(end, blk.Begin(i)); return true }); err != nil {
			t.Fatal(err)
		}
		for trial := range 200 {
			var windows []window
			for at := vclock.Time(rng.Intn(int(end) + 1)); at <= end && len(windows) < 1+trial%5; {
				w := window{lo: at, hi: at + vclock.Time(rng.Intn(40))}
				if rng.Intn(8) == 0 {
					w.hi = w.lo - 1 // malformed: selects as [lo, lo]
				}
				windows = append(windows, w)
				at = max(w.lo, w.hi) + 1 + vclock.Time(rng.Intn(int(end)/4+1))
			}
			if len(windows) == 0 {
				continue
			}
			var want []int
			pos := 0
			if err := seg.each(func(blk *trace.SpanBlock, i int) bool {
				for _, w := range windows {
					if blk.Begin(i) <= max(w.lo, w.hi) && blk.End(i) >= w.lo {
						want = append(want, pos)
						break
					}
				}
				pos++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			got, err := seg.overlapping(windows)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, windows %v: %d hits %v..., the record scan %d %v...", name, windows, len(got), got[:min(len(got), 8)], len(want), want[:min(len(want), 8)])
			}
		}
	}
	for _, name := range []string{"filed fold", "filed interleaved"} {
		shapes[name].file.unref() // and its remainder's with it
	}
}

// A fresh fold's file takes its block's directory as it is: it must be the
// directory a pass over the file's own records builds.
func TestWrittenFoldKeepsItsDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	st, _, err := segio.Open(faultfs.New(), segio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, n := range []int{1, windowRecords - 1, windowRecords, 2*windowRecords + 5} {
		var h history
		spans, owned := dirSpans(rng, n, 1, 0)
		h.push(dirFold(&h, spans, owned))
		if err := h.write(st, func(*ckptSegment) bool { return true }); err != nil {
			t.Fatal(err)
		}
		seg := &h.segs[0]
		if seg.file == nil || seg.blocks != nil {
			t.Fatalf("%d records: the fold was not filed", n)
		}
		var dir dirBuilder
		if err := seg.each(func(blk *trace.SpanBlock, i int) bool { dir.add(blk, i); return true }); err != nil {
			t.Fatal(err)
		}
		if want := dir.done(); !reflect.DeepEqual(seg.file.dir, want) {
			t.Fatalf("%d records: the file's directory %s, a pass over its records %s", n, fmt.Sprint(seg.file.dir), fmt.Sprint(want))
		}
		h.release()
	}
}
