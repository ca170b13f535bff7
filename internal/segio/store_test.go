package segio_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xsp/internal/segio"
	"xsp/internal/segio/faultfs"
	"xsp/internal/trace"
	"xsp/internal/vclock"
)

func mkSpan(id uint64, begin, end vclock.Time, level trace.Level, kind trace.Kind) *trace.Span {
	return &trace.Span{
		ID:     id,
		Level:  level,
		Kind:   kind,
		Name:   "op",
		Source: "unit",
		Begin:  begin,
		End:    end,
	}
}

// block encodes spans, with their owned bitset, as the payload WriteSegment
// takes.
func block(spans []*trace.Span, owned []uint64) []byte {
	return trace.AppendSpanBlock(nil, spans, func(i int) bool { return i/64 < len(owned) && owned[i/64]&(1<<(i%64)) != 0 })
}

func requireNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	fs := faultfs.New()
	st, rec, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	if len(rec.Segments) != 0 || rec.Snapshot != nil {
		t.Fatalf("fresh dir produced recovery state: %+v", rec)
	}

	a := mkSpan(1, 0, 100, 0, trace.KindSync)
	a.Tags = []trace.Tag{{Key: "model", Value: "resnet"}, {Key: "phase", Value: "fwd"}}
	a.Metrics = []trace.Metric{{Key: "flops", Value: 1.5e9}, {Key: "bytes", Value: 4096}}
	b := mkSpan(2, 10, 20, 1, trace.KindLaunch)
	b.CorrelationID = 77
	c := mkSpan(3, 12, 18, 2, trace.KindExec)
	c.ParentID = 2
	spans := []*trace.Span{a, b, c}
	owned := []uint64{0b100} // only c's parent was derived online

	id, err := st.WriteSegment(block(spans, owned), nil)
	requireNoErr(t, err)
	requireNoErr(t, st.Close())

	st2, rec2, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	defer st2.Close()
	if len(rec2.Segments) != 1 || rec2.Segments[0].ID != id {
		t.Fatalf("want 1 segment id=%d, got %+v", id, rec2.Segments)
	}
	gotSpans, gotOwned := readSegment(t, rec2.Segments[0].File, 2)
	if !reflect.DeepEqual(gotSpans, spans) {
		t.Fatalf("segment spans differ:\n got %v\nwant %v", gotSpans, spans)
	}
	if !reflect.DeepEqual(gotOwned, owned) {
		t.Fatalf("owned bitset differs: got %v want %v", gotOwned, owned)
	}
}

// readSegment decodes a segment file through windows of at most w records,
// with its owned bitset.
func readSegment(t *testing.T, f *segio.SegmentFile, w int) ([]*trace.Span, []uint64) {
	t.Helper()
	var st trace.SpanStore
	var spans []*trace.Span
	owned := make([]uint64, (f.Len()+63)/64)
	r := f.Pass()
	for lo := 0; lo < f.Len(); lo += w {
		blk, _, err := f.Window(r, lo, min(lo+w, f.Len()), nil)
		requireNoErr(t, err)
		d := blk.Decoder()
		for i := 0; i < blk.Len(); i++ {
			spans = append(spans, d.Span(&st, i))
			if blk.Owned(i) {
				owned[(lo+i)/64] |= 1 << ((lo + i) % 64)
			}
		}
	}
	return spans, owned
}

// A gathered segment — records of two files merged, one record dropped —
// streams to the file AppendSpanBlock's block of the merge would make, reads back
// through windows of every width, and keeps reading through a handle
// after a later write removes its name.
func TestWriteGatheredReadsThroughWindows(t *testing.T) {
	fs := faultfs.New()
	st, _, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	defer st.Close()
	var a, b []*trace.Span
	for i := 0; i < 40; i++ {
		s := mkSpan(uint64(i+1), vclock.Time(i), vclock.Time(i+5), trace.Level(i%3), trace.KindSync)
		s.Name = []string{"conv", "relu", "pool"}[i%3]
		s.Tags = []trace.Tag{{Key: "layer", Value: s.Name}}
		if i%4 == 0 {
			s.Metrics = []trace.Metric{{Key: "flops", Value: float64(i)}}
		}
		if i%2 == 0 {
			a = append(a, s)
		} else {
			b = append(b, s)
		}
	}
	ownedA := []uint64{0b1011}
	ida, err := st.WriteSegment(block(a, ownedA), nil)
	requireNoErr(t, err)
	idb, err := st.WriteSegment(block(b, nil), nil)
	requireNoErr(t, err)
	fa, err := st.OpenSegment(ida)
	requireNoErr(t, err)
	fb, err := st.OpenSegment(idb)
	requireNoErr(t, err)

	// The merge in begin order, less the record of span 7: what the
	// reference encodes from the spans themselves.
	var refs []recordRef
	var merged []*trace.Span
	var mergedOwned []bool
	for i := 0; i < 40; i++ {
		if i != 6 {
			refs = append(refs, recordRef{i % 2, i / 2})
			merged = append(merged, [][]*trace.Span{a, b}[i%2][i/2])
			mergedOwned = append(mergedOwned, i%2 == 0 && ownedA[0]&(1<<(i/2)) != 0)
		}
	}
	want := trace.AppendSpanBlock(nil, merged, func(i int) bool { return mergedOwned[i] })

	walk := func(yield func(blk *trace.SpanBlock, i int) bool) error {
		files := []*segio.SegmentFile{fa, fb}
		passes := []io.ReaderAt{fa.Pass(), fb.Pass()}
		for _, ref := range refs {
			f := files[ref.file]
			win, _, err := f.Window(passes[ref.file], ref.record, ref.record+1, nil)
			if err != nil {
				return err
			}
			if !yield(&win, 0) {
				return nil
			}
		}
		return nil
	}
	id, err := st.WriteGathered(len(refs), walk, []uint64{ida, idb})
	requireNoErr(t, err)
	data, err := fs.ReadFile(fmt.Sprintf("seg-%016x.seg", id))
	requireNoErr(t, err)
	if !bytes.Equal(data[24:], want) {
		t.Fatalf("gathered segment payload differs from AppendSpanBlock's: %d vs %d bytes", len(data)-24, len(want))
	}
	if _, err := fs.ReadFile(fmt.Sprintf("seg-%016x.seg", ida)); err == nil {
		t.Fatalf("input %d survived the write that replaced it", ida)
	}
	f, err := st.OpenSegment(id)
	requireNoErr(t, err)
	wantSpans, wantOwned, _, err := trace.DecodeSpanBlock(want)
	requireNoErr(t, err)
	for _, w := range []int{1, 3, 7, 39, 64} {
		got, owned := readSegment(t, f, w)
		if !reflect.DeepEqual(got, wantSpans) || !reflect.DeepEqual(owned, wantOwned) {
			t.Fatalf("windows of %d: the segment reads back otherwise", w)
		}
	}
	// The inputs' names are gone, their handles still read.
	if got, _ := readSegment(t, fa, 5); !reflect.DeepEqual(got, a) {
		t.Fatalf("a removed input no longer reads back through its handle")
	}
	for _, f := range []*segio.SegmentFile{f, fa, fb} {
		requireNoErr(t, f.Close())
	}
	if n := fs.OpenReads(); n != 0 {
		t.Fatalf("%d read handles open after closing every segment file", n)
	}
}

// windowRecords is the most records the correlator reads from a segment
// file at once, and the most the block writer holds before writing them
// out: ~64 KB of them.
const windowRecords = 64 << 10 / trace.SpanRecordSize

// recordRef names record record of file file in a list of files.
type recordRef struct{ file, record int }

// gatherInputs writes two segment files whose records, merged in begin
// order, are n spans: every third owned, every fourth carrying a tag, every
// fifth a metric. It returns the files, the merge as references, and the
// block AppendSpanBlock encodes of the merged spans.
func gatherInputs(t *testing.T, st *segio.Store, n int) ([]*segio.SegmentFile, []recordRef, []byte) {
	t.Helper()
	var halves [2][]*trace.Span
	var owned [2][]uint64
	var refs []recordRef
	var merged []*trace.Span
	for i := 0; i < n; i++ {
		s := mkSpan(uint64(i+1), vclock.Time(i), vclock.Time(i+7), trace.Level(i%3), trace.KindSync)
		s.Name = fmt.Sprintf("op%d", i%11)
		if i%4 == 0 {
			s.Tags = []trace.Tag{{Key: "layer", Value: fmt.Sprint(i % 13)}}
		}
		if i%5 == 0 {
			s.Metrics = []trace.Metric{{Key: "flops", Value: float64(i)}}
		}
		h, r := i%2, len(halves[i%2])
		if r%64 == 0 {
			owned[h] = append(owned[h], 0)
		}
		if i%3 == 0 {
			owned[h][r/64] |= 1 << (r % 64)
		}
		halves[h] = append(halves[h], s)
		refs = append(refs, recordRef{h, r})
		merged = append(merged, s)
	}
	var files []*segio.SegmentFile
	for h := range halves {
		id, err := st.WriteSegment(block(halves[h], owned[h]), nil)
		requireNoErr(t, err)
		f, err := st.OpenSegment(id)
		requireNoErr(t, err)
		files = append(files, f)
	}
	return files, refs, trace.AppendSpanBlock(nil, merged, func(i int) bool { return i%3 == 0 })
}

// walkRefs walks refs through the files' windows, a record at a time, and
// counts its walks into walks.
func walkRefs(files []*segio.SegmentFile, refs []recordRef, walks *int) func(yield func(blk *trace.SpanBlock, i int) bool) error {
	return func(yield func(blk *trace.SpanBlock, i int) bool) error {
		*walks++
		passes := []io.ReaderAt{files[0].Pass(), files[1].Pass()}
		var buf []byte
		for _, ref := range refs {
			var win trace.SpanBlock
			var err error
			if win, buf, err = files[ref.file].Window(passes[ref.file], ref.record, ref.record+1, buf); err != nil {
				return err
			}
			if !yield(&win, 0) {
				return nil
			}
		}
		return nil
	}
}

// A gathered segment is written in one walk of its records, and its file is
// byte for byte the one WriteSegment writes for AppendSpanBlock's block of
// the same spans — header and all — at every size around the writer's
// chunk: empty, one record, a window less one, one window, a window and
// one, and a survivor of several windows.
func TestWriteGatheredIsOnePass(t *testing.T) {
	for _, n := range []int{0, 1, windowRecords - 1, windowRecords, windowRecords + 1, 3*windowRecords + 77} {
		fs := faultfs.New()
		st, _, err := segio.Open(fs, segio.Options{})
		requireNoErr(t, err)
		files, refs, merged := gatherInputs(t, st, n)
		wantID, err := st.WriteSegment(merged, nil)
		requireNoErr(t, err)

		walks := 0
		id, err := st.WriteGathered(n, walkRefs(files, refs, &walks), nil)
		requireNoErr(t, err)
		if walks != 1 {
			t.Fatalf("%d records: the write walked them %d times", n, walks)
		}
		got, err := fs.ReadFile(fmt.Sprintf("seg-%016x.seg", id))
		requireNoErr(t, err)
		want, err := fs.ReadFile(fmt.Sprintf("seg-%016x.seg", wantID))
		requireNoErr(t, err)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d records: the one-pass file differs from WriteSegment's of the merged spans' block (%d vs %d bytes)", n, len(got), len(want))
		}
		var onDisk int64
		names, err := fs.ReadDir()
		requireNoErr(t, err)
		for _, name := range names {
			if strings.HasSuffix(name, ".seg") {
				data, err := fs.ReadFile(name)
				requireNoErr(t, err)
				onDisk += int64(len(data))
			}
		}
		if counted := st.Stats().SegmentBytes; counted != onDisk {
			t.Fatalf("%d records: the store counts %d segment bytes, the files hold %d: the patched header counts once", n, counted, onDisk)
		}
		f, err := st.OpenSegment(id)
		requireNoErr(t, err)
		if f.Len() != n {
			t.Fatalf("%d records: the file opens with %d", n, f.Len())
		}
		for _, f := range append(files, f) {
			requireNoErr(t, f.Close())
		}
		requireNoErr(t, st.Close())
	}
}

// A walk that fails, stops short or runs long fails the write: the inputs
// stay, and what is left of the write is its unpublished .tmp, which a
// reopened store drops.
func TestWriteGatheredFailureLeavesOnlyTmp(t *testing.T) {
	for _, tc := range []struct {
		name string
		walk func(refs []recordRef) []recordRef
		fail error
	}{
		{"read error", func(refs []recordRef) []recordRef { return refs }, errors.New("read failed")},
		{"short walk", func(refs []recordRef) []recordRef { return refs[:len(refs)-1] }, nil},
		{"long walk", func(refs []recordRef) []recordRef { return append(refs, refs[0]) }, nil},
	} {
		fs := faultfs.New()
		st, _, err := segio.Open(fs, segio.Options{})
		requireNoErr(t, err)
		files, refs, _ := gatherInputs(t, st, windowRecords+5)
		before, err := fs.ReadDir()
		requireNoErr(t, err)
		walks := 0
		walk := walkRefs(files, tc.walk(refs), &walks)
		if tc.fail != nil {
			half := walk
			walk = func(yield func(blk *trace.SpanBlock, i int) bool) error {
				k := 0
				if err := half(func(blk *trace.SpanBlock, i int) bool { k++; return k < len(refs)/2 && yield(blk, i) }); err != nil {
					return err
				}
				return tc.fail
			}
		}
		_, err = st.WriteGathered(len(refs), walk, []uint64{files[0].ID(), files[1].ID()})
		if err == nil || (tc.fail != nil && !errors.Is(err, tc.fail)) {
			t.Fatalf("%s: WriteGathered = %v", tc.name, err)
		}
		after, err := fs.ReadDir()
		requireNoErr(t, err)
		added := slices.DeleteFunc(slices.Clone(after), func(name string) bool { return slices.Contains(before, name) })
		if len(added) != 1 || !strings.HasSuffix(added[0], ".seg.tmp") || len(after) != len(before)+1 {
			t.Fatalf("%s: a failed write left %v beside %v, want one .tmp and the inputs", tc.name, added, before)
		}
		for _, f := range files {
			requireNoErr(t, f.Close())
		}
		requireNoErr(t, st.Close())
		st, rec, err := segio.Open(fs, segio.Options{})
		requireNoErr(t, err)
		if len(rec.Segments) != 2 {
			t.Fatalf("%s: reopened with %d segments, want the two inputs", tc.name, len(rec.Segments))
		}
		for _, seg := range rec.Segments {
			requireNoErr(t, seg.File.Close())
		}
		if names, _ := fs.ReadDir(); slices.ContainsFunc(names, func(name string) bool { return strings.HasSuffix(name, ".tmp") }) {
			t.Fatalf("%s: a reopened store kept %v", tc.name, names)
		}
		requireNoErr(t, st.Close())
	}
}

func TestWALBatchAndRotate(t *testing.T) {
	fs := faultfs.New()
	st, _, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)

	b1 := []*trace.Span{mkSpan(1, 0, 10, 0, trace.KindSync)}
	b2 := []*trace.Span{mkSpan(2, 5, 8, 1, trace.KindLaunch)}
	requireNoErr(t, st.LogBatch(block(b1, nil), 101))
	requireNoErr(t, st.LogBatch(block(b2, nil), 102))

	// Rotate: snapshot covers the live tail, trims batch records, and
	// carries the dedup window forward.
	snap := segio.Snapshot{
		Live:  []*trace.Span{mkSpan(3, 7, 9, 2, trace.KindExec)},
		Owned: []uint64{1},
		Corr:  []segio.CorrEntry{{Corr: 77, Parent: 2, At: 5}},
		Floor: &segio.SpanKey{Begin: 7, End: 9, Level: 2, Kind: trace.KindExec, ID: 3},
	}
	requireNoErr(t, st.Rotate(snap))
	b3 := []*trace.Span{mkSpan(4, 9, 12, 1, trace.KindLaunch)}
	requireNoErr(t, st.LogBatch(block(b3, nil), 103))
	requireNoErr(t, st.Close())

	_, rec, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	if rec.Snapshot == nil {
		t.Fatal("snapshot not recovered")
	}
	if !reflect.DeepEqual(rec.Snapshot.Live, snap.Live) || !reflect.DeepEqual(rec.Snapshot.Owned, snap.Owned) {
		t.Fatalf("snapshot live tail differs: %+v", rec.Snapshot)
	}
	if !reflect.DeepEqual(rec.Snapshot.Corr, snap.Corr) {
		t.Fatalf("corr entries differ: %+v", rec.Snapshot.Corr)
	}
	if !reflect.DeepEqual(rec.Snapshot.Floor, snap.Floor) {
		t.Fatalf("floor differs: %+v", rec.Snapshot.Floor)
	}
	if len(rec.Batches) != 1 || rec.Batches[0].BatchID != 103 || !reflect.DeepEqual(rec.Batches[0].Spans, b3) {
		t.Fatalf("want only post-rotate batch 103, got %+v", rec.Batches)
	}
	if !reflect.DeepEqual(rec.DedupIDs, []uint64{101, 102, 103}) {
		t.Fatalf("dedup window = %v, want [101 102 103]", rec.DedupIDs)
	}
	if rec.WALTruncatedBytes != 0 {
		t.Fatalf("unexpected torn tail: %d bytes", rec.WALTruncatedBytes)
	}
}

// The persisted dedup window is the server's: the newest trace.DedupWindow
// batch ids, carried across a rotation by its snapshot and after it by the
// batch records.
func TestDedupWindowBounded(t *testing.T) {
	fs := faultfs.New()
	st, _, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	const n = trace.DedupWindow + 3
	for id := uint64(1); id <= n; id++ {
		if id == n/2 {
			requireNoErr(t, st.Rotate(segio.Snapshot{}))
		}
		requireNoErr(t, st.LogBatch(block([]*trace.Span{mkSpan(id, vclock.Time(id), vclock.Time(id+1), 0, trace.KindSync)}, nil), 100+id))
	}
	st.Close()
	_, rec, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	var want []uint64
	for id := uint64(4); id <= n; id++ {
		want = append(want, 100+id)
	}
	if !reflect.DeepEqual(rec.DedupIDs, want) {
		t.Fatalf("dedup window of %d ids from %v, want the newest %d, %d through %d", len(rec.DedupIDs), rec.DedupIDs[:min(len(rec.DedupIDs), 3)], trace.DedupWindow, want[0], want[len(want)-1])
	}
}

// Every snapshot record is stamped with the store's next segment id, and
// Open dates each recovered segment against it — also when every file the
// stamp counted is gone by the next start: ids keep ascending across the
// restart, so a file written after a snapshot never reads as older.
func TestSnapshotDatesSegments(t *testing.T) {
	fs := faultfs.New()
	st, _, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	before, err := st.WriteSegment(block([]*trace.Span{mkSpan(1, 0, 10, 0, trace.KindSync)}, nil), nil)
	requireNoErr(t, err)
	requireNoErr(t, st.Rotate(segio.Snapshot{}))
	since, err := st.WriteSegment(block([]*trace.Span{mkSpan(2, 10, 20, 0, trace.KindSync)}, nil), nil)
	requireNoErr(t, err)
	requireNoErr(t, st.Close())

	st, rec, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	if len(rec.Segments) != 2 || rec.Segments[0].ID != before || rec.Segments[0].SinceSnapshot ||
		rec.Segments[1].ID != since || !rec.Segments[1].SinceSnapshot {
		t.Fatalf("want segment %d before the snapshot and %d since, got %+v", before, since, rec.Segments)
	}

	requireNoErr(t, st.Rotate(segio.Snapshot{}))
	requireNoErr(t, st.DropSegments([]uint64{before, since}))
	requireNoErr(t, st.Close())
	st, rec, err = segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	if len(rec.Segments) != 0 {
		t.Fatalf("dropped segments recovered: %+v", rec.Segments)
	}
	requireNoErr(t, st.Rotate(segio.Snapshot{}))
	next, err := st.WriteSegment(block([]*trace.Span{mkSpan(3, 20, 30, 0, trace.KindSync)}, nil), nil)
	requireNoErr(t, err)
	if next <= since {
		t.Fatalf("segment id %d reused after a restart over an empty directory (last was %d)", next, since)
	}
}

func TestSupersededSegmentsDropped(t *testing.T) {
	fs := faultfs.New()
	st, _, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)

	s1 := []*trace.Span{mkSpan(1, 0, 10, 0, trace.KindSync)}
	s2 := []*trace.Span{mkSpan(2, 10, 20, 0, trace.KindSync)}
	_, err = st.WriteSegment(block(s1, nil), nil)
	requireNoErr(t, err)
	_, err = st.WriteSegment(block(s2, nil), nil)
	requireNoErr(t, err)
	// A compaction that crashed after publishing the merged file but
	// before deleting its inputs: pass no replaces.
	merged := []*trace.Span{s1[0], s2[0]}
	mid, err := st.WriteSegment(block(merged, nil), nil)
	requireNoErr(t, err)
	st.Close()

	_, rec, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	if len(rec.Segments) != 1 || rec.Segments[0].ID != mid {
		t.Fatalf("want only merged segment %d, got %+v", mid, rec.Segments)
	}
	if rec.SupersededSegments != 2 {
		t.Fatalf("SupersededSegments = %d, want 2", rec.SupersededSegments)
	}
	// The leftovers were deleted, so a second recovery is clean.
	_, rec2, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	if rec2.SupersededSegments != 0 || len(rec2.Segments) != 1 {
		t.Fatalf("second recovery not clean: %+v", rec2)
	}
}

func TestCorruptSegmentQuarantined(t *testing.T) {
	fs := faultfs.New()
	st, _, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	_, err = st.WriteSegment(block([]*trace.Span{mkSpan(1, 0, 10, 0, trace.KindSync)}, nil), nil)
	requireNoErr(t, err)
	keepID, err := st.WriteSegment(block([]*trace.Span{mkSpan(2, 10, 20, 0, trace.KindSync)}, nil), nil)
	requireNoErr(t, err)
	st.Close()

	names, err := fs.ReadDir()
	requireNoErr(t, err)
	var corrupted string
	for _, n := range names {
		if n == "seg-0000000000000001.seg" {
			corrupted = n
			data, rerr := fs.ReadFile(n)
			requireNoErr(t, rerr)
			requireNoErr(t, fs.Corrupt(n, len(data)-3)) // flip a payload bit
		}
	}
	if corrupted == "" {
		t.Fatalf("segment file not found in %v", names)
	}

	st2, rec, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	if len(rec.Quarantined) != 1 || rec.Quarantined[0] != corrupted {
		t.Fatalf("Quarantined = %v, want [%s]", rec.Quarantined, corrupted)
	}
	if len(rec.Segments) != 1 || rec.Segments[0].ID != keepID {
		t.Fatalf("want intact segment %d only, got %+v", keepID, rec.Segments)
	}
	names, err = fs.ReadDir()
	requireNoErr(t, err)
	foundQ := false
	for _, n := range names {
		if n == corrupted {
			t.Fatalf("corrupt file still present under original name: %v", names)
		}
		if n == corrupted+".quarantine" {
			foundQ = true
		}
	}
	if !foundQ {
		t.Fatalf("quarantine file missing: %v", names)
	}
	// The store stays usable once the caller re-establishes the WAL.
	if err := st2.Rotate(segio.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	requireNoErr(t, st2.LogBatch(block([]*trace.Span{mkSpan(9, 30, 40, 0, trace.KindSync)}, nil), 9))
}

func TestTornWALTailTruncated(t *testing.T) {
	fs := faultfs.New()
	st, _, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	b1 := []*trace.Span{mkSpan(1, 0, 10, 0, trace.KindSync)}
	b2 := []*trace.Span{mkSpan(2, 10, 20, 0, trace.KindSync)}
	requireNoErr(t, st.LogBatch(block(b1, nil), 11))
	requireNoErr(t, st.LogBatch(block(b2, nil), 12))
	st.Close()

	// Tear the tail: append garbage that looks like the start of a record.
	names, err := fs.ReadDir()
	requireNoErr(t, err)
	var wal string
	for _, n := range names {
		if len(n) > 4 && n[:4] == "wal-" {
			wal = n
		}
	}
	f, err := fs.OpenAppend(wal)
	requireNoErr(t, err)
	_, err = f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01})
	requireNoErr(t, err)
	requireNoErr(t, f.Sync())
	requireNoErr(t, f.Close())

	st2, rec, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	if len(rec.Batches) != 2 {
		t.Fatalf("want both intact batches, got %d", len(rec.Batches))
	}
	if !reflect.DeepEqual(rec.Batches[0].Spans, b1) || !reflect.DeepEqual(rec.Batches[1].Spans, b2) {
		t.Fatalf("recovered batches differ: %+v", rec.Batches)
	}
	if rec.WALTruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// Appends are gated until the WAL is re-established.
	err = st2.LogBatch(block(b1, nil), 13)
	if !errors.Is(err, segio.ErrNeedRotate) {
		t.Fatalf("LogBatch after recovery = %v, want ErrNeedRotate", err)
	}
	requireNoErr(t, st2.Rotate(segio.Snapshot{}))
	requireNoErr(t, st2.LogBatch(block(b1, nil), 13))
}

// A file whose name only looks like the store's — upper-case hex digits
// parse to an id whose file has the lower-case name — is not the store's:
// recovery ignores it and leaves it where it is, instead of failing on a
// file that does not exist and degrading the tenant to RAM-only.
func TestStrayNamesIgnored(t *testing.T) {
	fs := faultfs.New()
	st, _, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	b1 := []*trace.Span{mkSpan(1, 0, 10, 0, trace.KindSync)}
	requireNoErr(t, st.LogBatch(block(b1, nil), 11))
	requireNoErr(t, st.Close())
	strays := []string{"seg-00000000000000AB.seg", "wal-00000000000000CD.wal", "seg-00000000000000ab.seg.bak", "seg-ab.seg"}
	for _, name := range strays {
		f, err := fs.Create(name)
		requireNoErr(t, err)
		_, err = f.Write([]byte("not a store file"))
		requireNoErr(t, err)
		requireNoErr(t, f.Close())
	}

	st2, rec, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	defer st2.Close()
	if len(rec.Batches) != 1 || rec.Batches[0].BatchID != 11 || !reflect.DeepEqual(rec.Batches[0].Spans, b1) {
		t.Fatalf("acked batch not recovered: %+v", rec.Batches)
	}
	if len(rec.Segments) != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("a stray file was taken for the store's: segments %+v, quarantined %v", rec.Segments, rec.Quarantined)
	}
	names, err := fs.ReadDir()
	requireNoErr(t, err)
	for _, name := range strays {
		if !slices.Contains(names, name) {
			t.Errorf("stray %s was moved or removed: %v", name, names)
		}
	}
}

func TestResetClearsEverything(t *testing.T) {
	fs := faultfs.New()
	st, _, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	_, err = st.WriteSegment(block([]*trace.Span{mkSpan(1, 0, 10, 0, trace.KindSync)}, nil), nil)
	requireNoErr(t, err)
	requireNoErr(t, st.LogBatch(block([]*trace.Span{mkSpan(2, 10, 20, 0, trace.KindSync)}, nil), 5))
	requireNoErr(t, st.Reset())
	stats := st.Stats()
	if stats.Segments != 0 || stats.DedupIDs != 0 {
		t.Fatalf("post-reset stats = %+v", stats)
	}
	// Reset is immediately appendable (no rotate gate).
	requireNoErr(t, st.LogBatch(block([]*trace.Span{mkSpan(3, 20, 30, 0, trace.KindSync)}, nil), 6))
	st.Close()
	_, rec, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	if len(rec.Segments) != 0 || len(rec.Batches) != 1 || rec.Batches[0].BatchID != 6 {
		t.Fatalf("post-reset recovery = %+v", rec)
	}
}

func TestCrashMidSegmentWriteLeavesOldState(t *testing.T) {
	// Dry run to count ops for one WriteSegment, then crash at every
	// point inside it and assert recovery sees exactly the prior state.
	dry := faultfs.New()
	st, _, err := segio.Open(dry, segio.Options{})
	requireNoErr(t, err)
	base := []*trace.Span{mkSpan(1, 0, 10, 0, trace.KindSync)}
	requireNoErr(t, st.LogBatch(block(base, nil), 42))
	opsBefore := dry.Ops()
	_, err = st.WriteSegment(block([]*trace.Span{mkSpan(2, 10, 20, 0, trace.KindSync)}, nil), nil)
	requireNoErr(t, err)
	opsAfter := dry.Ops()

	for crash := opsBefore; crash < opsAfter; crash++ {
		fs := faultfs.New()
		fs.Arm(faultfs.Plan{CrashAfter: crash, Mode: faultfs.ModeTorn})
		st, _, err := segio.Open(fs, segio.Options{})
		requireNoErr(t, err)
		requireNoErr(t, st.LogBatch(block(base, nil), 42))
		if _, err := st.WriteSegment(block([]*trace.Span{mkSpan(2, 10, 20, 0, trace.KindSync)}, nil), nil); err == nil {
			t.Fatalf("crash=%d: WriteSegment unexpectedly succeeded", crash)
		}
		_, rec, err := segio.Open(fs.Recovered(), segio.Options{})
		requireNoErr(t, err)
		if len(rec.Segments) != 0 {
			t.Fatalf("crash=%d: torn segment visible: %+v", crash, rec.Segments)
		}
		if len(rec.Batches) != 1 || rec.Batches[0].BatchID != 42 {
			t.Fatalf("crash=%d: committed batch lost: %+v", crash, rec.Batches)
		}
	}
}
