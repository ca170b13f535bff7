package segio_test

import (
	"errors"
	"reflect"
	"slices"
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
	gotSpans, gotOwned, _, err := trace.DecodeSpanBlock(rec2.Segments[0].Block.Bytes())
	requireNoErr(t, err)
	if !reflect.DeepEqual(gotSpans, spans) {
		t.Fatalf("segment spans differ:\n got %v\nwant %v", gotSpans, spans)
	}
	if !reflect.DeepEqual(gotOwned, owned) {
		t.Fatalf("owned bitset differs: got %v want %v", gotOwned, owned)
	}
}

func TestWALBatchAndRotate(t *testing.T) {
	fs := faultfs.New()
	st, _, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)

	b1 := []*trace.Span{mkSpan(1, 0, 10, 0, trace.KindSync)}
	b2 := []*trace.Span{mkSpan(2, 5, 8, 1, trace.KindLaunch)}
	requireNoErr(t, st.LogBatch(b1, 101))
	requireNoErr(t, st.LogBatch(b2, 102))

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
	requireNoErr(t, st.LogBatch(b3, 103))
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

func TestDedupWindowBounded(t *testing.T) {
	fs := faultfs.New()
	st, _, err := segio.Open(fs, segio.Options{MaxDedup: 3})
	requireNoErr(t, err)
	for id := uint64(1); id <= 5; id++ {
		requireNoErr(t, st.LogBatch([]*trace.Span{mkSpan(id, vclock.Time(id), vclock.Time(id+1), 0, trace.KindSync)}, 100+id))
	}
	st.Close()
	_, rec, err := segio.Open(fs, segio.Options{MaxDedup: 3})
	requireNoErr(t, err)
	if !reflect.DeepEqual(rec.DedupIDs, []uint64{103, 104, 105}) {
		t.Fatalf("dedup window = %v, want newest 3", rec.DedupIDs)
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
	requireNoErr(t, st2.LogBatch([]*trace.Span{mkSpan(9, 30, 40, 0, trace.KindSync)}, 9))
}

func TestTornWALTailTruncated(t *testing.T) {
	fs := faultfs.New()
	st, _, err := segio.Open(fs, segio.Options{})
	requireNoErr(t, err)
	b1 := []*trace.Span{mkSpan(1, 0, 10, 0, trace.KindSync)}
	b2 := []*trace.Span{mkSpan(2, 10, 20, 0, trace.KindSync)}
	requireNoErr(t, st.LogBatch(b1, 11))
	requireNoErr(t, st.LogBatch(b2, 12))
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
	err = st2.LogBatch(b1, 13)
	if !errors.Is(err, segio.ErrNeedRotate) {
		t.Fatalf("LogBatch after recovery = %v, want ErrNeedRotate", err)
	}
	requireNoErr(t, st2.Rotate(segio.Snapshot{}))
	requireNoErr(t, st2.LogBatch(b1, 13))
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
	requireNoErr(t, st.LogBatch(b1, 11))
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
	requireNoErr(t, st.LogBatch([]*trace.Span{mkSpan(2, 10, 20, 0, trace.KindSync)}, 5))
	requireNoErr(t, st.Reset())
	stats := st.Stats()
	if stats.Segments != 0 || stats.DedupIDs != 0 {
		t.Fatalf("post-reset stats = %+v", stats)
	}
	// Reset is immediately appendable (no rotate gate).
	requireNoErr(t, st.LogBatch([]*trace.Span{mkSpan(3, 20, 30, 0, trace.KindSync)}, 6))
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
	requireNoErr(t, st.LogBatch(base, 42))
	opsBefore := dry.Ops()
	_, err = st.WriteSegment(block([]*trace.Span{mkSpan(2, 10, 20, 0, trace.KindSync)}, nil), nil)
	requireNoErr(t, err)
	opsAfter := dry.Ops()

	for crash := opsBefore; crash < opsAfter; crash++ {
		fs := faultfs.New()
		fs.Arm(faultfs.Plan{CrashAfter: crash, Mode: faultfs.ModeTorn})
		st, _, err := segio.Open(fs, segio.Options{})
		requireNoErr(t, err)
		requireNoErr(t, st.LogBatch(base, 42))
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
