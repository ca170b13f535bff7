package segio

// Recovery fuzzed beneath the checksum: every input mutates a WAL record's
// or a segment file's payload and then re-seals its CRC, so the bytes reach
// the decoders behind it (decodeSnapshot, the span block codec) instead of
// stopping at the checksum. faultfs imports this package, so these
// internal tests keep their files in memFS below.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// memFS is a flat in-memory FS: every write durable at once, no faults.
type memFS map[string][]byte

type memFile struct {
	fs   memFS
	name string
}

func (f memFS) Create(name string) (File, error) {
	f[name] = nil
	return &memFile{f, name}, nil
}

func (f memFS) OpenAppend(name string) (File, error) {
	if _, ok := f[name]; !ok {
		return nil, os.ErrNotExist
	}
	return &memFile{f, name}, nil
}

func (f memFS) ReadFile(name string) ([]byte, error) {
	b, ok := f[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	return bytes.Clone(b), nil
}

func (f memFS) Rename(oldname, newname string) error {
	b, ok := f[oldname]
	if !ok {
		return os.ErrNotExist
	}
	delete(f, oldname)
	f[newname] = b
	return nil
}

func (f memFS) Remove(name string) error { delete(f, name); return nil }

func (f memFS) ReadDir() ([]string, error) {
	names := make([]string, 0, len(f))
	for n := range f {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (f memFS) SyncDir() error { return nil }

func (w *memFile) Write(p []byte) (int, error) {
	w.fs[w.name] = append(w.fs[w.name], p...)
	return len(p), nil
}

func (w *memFile) WriteAt(p []byte, off int64) (int, error) {
	b := w.fs[w.name]
	if end := int(off) + len(p); end > len(b) {
		b = append(b, make([]byte, end-len(b))...)
	}
	copy(b[off:], p)
	w.fs[w.name] = b
	return len(p), nil
}

func (w *memFile) Sync() error  { return nil }
func (w *memFile) Close() error { return nil }

// fuzzSpans returns n spans that use every field the span block carries:
// tags, metrics, a parent, a correlation id, every kind.
func fuzzSpans(firstID uint64, n int) []*trace.Span {
	spans := make([]*trace.Span, n)
	for i := range spans {
		id := firstID + uint64(i)
		s := &trace.Span{
			ID: id, Level: trace.Level(i % 4), Kind: trace.Kind(i % 3),
			Name: "op", Source: "unit",
			Begin: vclock.Time(10 * id), End: vclock.Time(10*id + 25),
		}
		if i%2 == 1 {
			s.ParentID = id - 1
			s.CorrelationID = 1000 + id
			s.Tags = []trace.Tag{{Key: "layer", Value: "conv"}}
			s.Metrics = []trace.Metric{{Key: "bytes", Value: float64(id)}}
		}
		spans[i] = s
	}
	return spans
}

// fuzzSnapshot is a snapshot with every section filled: owned live spans,
// correlation entries, a release floor.
func fuzzSnapshot() *Snapshot {
	return &Snapshot{
		Live:  fuzzSpans(1, 5),
		Owned: []uint64{0b10101},
		Corr:  []CorrEntry{{Corr: 1002, Parent: 1, At: 40}, {Corr: 1004, Parent: 0, At: 55}},
		Floor: &SpanKey{Begin: 50, End: 75, Level: 1, Kind: trace.KindLaunch, ID: 5},
	}
}

// floorFlagAt is the offset of the floor-present byte in fuzzSnapshot's
// payload: after the span block and the correlation table.
func floorFlagAt() uint16 {
	payload := encodeSnapshot(nil, fuzzSnapshot(), nil, 0)
	_, rest, err := trace.ParseSpanBlock(payload)
	if err != nil {
		panic(err)
	}
	return uint16(len(payload) - len(rest) + 4 + 24*len(fuzzSnapshot().Corr))
}

// fuzzWAL returns a store directory whose WAL holds a snapshot record (with
// a dedup window and a segment-id stamp) and two batch records, and the
// WAL's name.
func fuzzWAL(t testing.TB) (memFS, string) {
	fs := memFS{}
	st, _, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		st.LogBatch(trace.AppendSpanBlock(nil, fuzzSpans(90, 2), nil), 5), // lands in the snapshot's dedup window
		st.Rotate(*fuzzSnapshot()),
		st.LogBatch(trace.AppendSpanBlock(nil, fuzzSpans(100, 4), nil), 11),
		st.LogBatch(trace.AppendSpanBlock(nil, fuzzSpans(200, 3), nil), 0),
		st.Close(),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	for name := range fs {
		if strings.HasPrefix(name, "wal-") {
			return fs, name
		}
	}
	t.Fatal("no WAL written")
	return nil, ""
}

// walRecords returns each record's [start, end) in a WAL image whose records
// all frame correctly.
func walRecords(data []byte) [][2]int {
	var recs [][2]int
	for off := walHeaderLen; off+8 <= len(data); {
		end := off + 8 + int(binary.LittleEndian.Uint32(data[off:]))
		recs = append(recs, [2]int{off, end})
		off = end
	}
	return recs
}

// sealRecord frames body (type byte first) as one WAL record.
func sealRecord(body []byte) []byte {
	rec, start := beginWALRecord(nil, body[0])
	return sealWALRecord(append(rec, body[1:]...), start)
}

// mutatePayload flips the payload byte at off by xor (none when xor is 0),
// then grows the payload by resize bytes of xor or cuts -resize bytes off
// its end. The type byte is left as it was.
func mutatePayload(payload []byte, off uint16, xor byte, resize int8) []byte {
	p := bytes.Clone(payload)
	if len(p) > 0 {
		p[int(off)%len(p)] ^= xor
	}
	if resize > 0 {
		p = append(p, bytes.Repeat([]byte{xor}, int(resize))...)
	} else {
		p = p[:max(0, len(p)+int(resize))]
	}
	return p
}

// reencodeWAL encodes a recovery's WAL state the way the store writes it:
// header, the snapshot record, the batch records.
func reencodeWAL(header []byte, snap *Snapshot, batches []Batch) []byte {
	out := bytes.Clone(header)
	if snap != nil {
		rec, start := beginWALRecord(out, walSnapshotRec)
		out = sealWALRecord(encodeSnapshot(rec, snap, snap.dedup, snap.nextSeg), start)
	}
	for _, b := range batches {
		rec, start := beginWALRecord(out, walBatchRec)
		rec = binary.LittleEndian.AppendUint64(rec, b.BatchID)
		rec = trace.AppendSpanBlock(rec, b.Spans, func(i int) bool { return ownedBit(b.Owned, i) })
		out = sealWALRecord(rec, start)
	}
	return out
}

// canonicalBlock reports whether the span block at the head of b is the
// one AppendSpanBlock writes for the spans it decodes to. The block codec
// is the wire's too and accepts any layout whose offsets are in bounds
// (strings shared or not, flag bits it does not read), so a mutated block
// can decode and still re-encode to other bytes.
func canonicalBlock(b []byte) bool {
	spans, owned, rest, err := trace.DecodeSpanBlock(b)
	if err != nil {
		return false
	}
	again := trace.AppendSpanBlock(nil, spans, func(i int) bool { return ownedBit(owned, i) })
	return bytes.Equal(again, b[:len(b)-len(rest)])
}

// allocBound is the most a decode of n input bytes may allocate: a stated
// multiple of the input plus a fixed allowance (span arena chunks, maps).
// A length field trusted without checking it against the bytes left would
// allocate what it declares, which the fuzzer drives far past this.
func allocBound(n int) uint64 { return 16*uint64(n) + 1<<20 }

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzRecoverWAL mutates one record of a real WAL (a snapshot record and two
// batch records) beneath a re-sealed CRC and recovers the directory with
// Open. Open must not panic or fail, must allocate within allocBound of the
// file, and must keep a prefix of the records. Either the mutated record is
// rejected — its decoder returns ErrCorrupt (or its payload has bytes past
// its last field), the WAL is truncated at its start, and what was kept
// re-encodes byte-identically to the original WAL up to there — or it is
// accepted with every record after it, and the recovered state re-encodes
// to bytes that decode to that same state — to the mutated WAL itself, byte
// for byte, unless the record's span block is not canonical (canonicalBlock)
// or it is a snapshot without the segment-id stamp, which re-encodes with
// one.
func FuzzRecoverWAL(f *testing.F) {
	// record, payload offset, xor, resize
	f.Add(uint8(0), uint16(0), byte(0), int8(0))        // untouched
	f.Add(uint8(0), uint16(0), byte(0xff), int8(0))     // the snapshot's span count
	f.Add(uint8(0), uint16(0), byte(0), int8(3))        // bytes after the snapshot's stamp
	f.Add(uint8(0), uint16(0), byte(0), int8(-8))       // the stamp cut off: the pre-stamp format
	f.Add(uint8(0), uint16(470), byte(0x80), int8(0))   // inside the snapshot's tables
	f.Add(uint8(0), floorFlagAt(), byte(0x03), int8(0)) // the floor flag 1 -> 2
	f.Add(uint8(1), uint16(8), byte(0x01), int8(0))     // the batch's span count
	f.Add(uint8(1), uint16(100), byte(0x40), int8(0))   // a record's kind or flags
	f.Add(uint8(1), uint16(0), byte(0), int8(-1))       // the blob's last byte cut off
	f.Add(uint8(2), uint16(0), byte(0), int8(-100))     // a batch cut short
	f.Add(uint8(2), uint16(3), byte(0x10), int8(1))     // the batch id, and a trailing byte
	f.Fuzz(func(t *testing.T, recIdx uint8, off uint16, xor byte, resize int8) {
		fs, wal := fuzzWAL(t)
		orig := fs[wal]
		recs := walRecords(orig)
		k := int(recIdx) % len(recs)
		start, end := recs[k][0], recs[k][1]
		body := orig[start+8 : end]
		payload := mutatePayload(body[1:], off, xor, resize)
		mutated := append(append(bytes.Clone(orig[:start]), sealRecord(append([]byte{body[0]}, payload...))...), orig[end:]...)
		fs[wal] = mutated

		var (
			st  *Store
			rec *Recovery
			err error
		)
		if n := allocated(func() { st, rec, err = Open(fs, Options{}) }); n > allocBound(len(mutated)) {
			t.Fatalf("Open allocated %d bytes for a %d-byte WAL (bound %d)", n, len(mutated), allocBound(len(mutated)))
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer st.Close()
		if len(rec.Quarantined) != 0 {
			t.Fatalf("a WAL with a valid header was quarantined: %v", rec.Quarantined)
		}
		kept := len(mutated) - int(rec.WALTruncatedBytes)
		mStart, mEnd := start, start+8+1+len(payload)
		switch {
		case kept == mStart:
			// Rejected: ErrCorrupt from the record's decoder, and the prefix
			// before it is the original's, byte for byte.
			var derr error
			if body[0] == walSnapshotRec {
				_, derr = decodeSnapshot(payload)
			} else if len(payload) >= 8 {
				var rest []byte
				if _, _, rest, derr = decodeSpanBlock(payload[8:]); derr == nil && len(rest) == 0 {
					t.Fatalf("record %d decodes, yet recovery truncated the WAL at its start", k)
				}
			}
			if derr != nil && !errors.Is(derr, ErrCorrupt) {
				t.Fatalf("record %d failed with %v, not ErrCorrupt", k, derr)
			}
			if got := reencodeWAL(orig[:walHeaderLen], rec.Snapshot, rec.Batches); !bytes.Equal(got, orig[:mStart]) {
				t.Fatalf("the kept prefix re-encodes to %d bytes that differ from the original's %d", len(got), mStart)
			}
		case kept == len(mutated) && mEnd <= kept:
			// Accepted, with everything after it: the state round-trips.
			again := reencodeWAL(mutated[:walHeaderLen], rec.Snapshot, rec.Batches)
			snap, batches, trunc, derr := decodeWAL(again)
			if derr != nil || trunc != 0 {
				t.Fatalf("the re-encoded WAL does not decode whole: %v, %d bytes truncated", derr, trunc)
			}
			if !reflect.DeepEqual(snap, rec.Snapshot) || !reflect.DeepEqual(batches, rec.Batches) {
				t.Fatal("the re-encoded WAL decodes to a different state")
			}
			block, preStamp := payload, rec.Snapshot.nextSeg == math.MaxUint64
			if body[0] == walBatchRec {
				block, preStamp = payload[8:], false
			}
			if canonicalBlock(block) && !preStamp && !bytes.Equal(again, mutated) {
				t.Fatalf("accepted record %d re-encodes to other bytes", k)
			}
		default:
			t.Fatalf("kept %d of %d bytes: neither the prefix before the mutated record %d [%d, %d) nor the whole WAL", kept, len(mutated), k, mStart, mEnd)
		}
	})
}

// FuzzDecodeSnapshot decodes mutated snapshot payloads, and the same
// payload sealed as a WAL record. It must not panic, must allocate within
// allocBound, and must either fail with ErrCorrupt — with decodeWAL
// truncating the record — or return a snapshot decodeWAL keeps too, whose
// re-encoding decodes to it again and is a fixed point: re-encoded once
// more, byte-identical. When the payload's span block is canonical
// (canonicalBlock) and it carries the segment-id stamp, the first
// re-encoding is the payload itself.
func FuzzDecodeSnapshot(f *testing.F) {
	full := fuzzSnapshot()
	bare := &Snapshot{}
	noFloor := fuzzSnapshot()
	noFloor.Floor = nil
	f.Add(encodeSnapshot(nil, full, []uint64{5, 6}, 3))
	f.Add(encodeSnapshot(nil, bare, nil, 1))
	f.Add(encodeSnapshot(nil, noFloor, []uint64{7}, math.MaxUint64))
	pre := encodeSnapshot(nil, full, []uint64{5}, 0)
	f.Add(pre[:len(pre)-8]) // written before the segment-id stamp existed
	flag := encodeSnapshot(nil, full, nil, 2)
	flag[floorFlagAt()] = 2 // neither "no floor" nor "a floor follows"
	f.Add(flag)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var (
			s   *Snapshot
			err error
		)
		if n := allocated(func() { s, err = decodeSnapshot(payload) }); n > allocBound(len(payload)) {
			t.Fatalf("decodeSnapshot allocated %d bytes for %d (bound %d)", n, len(payload), allocBound(len(payload)))
		}
		wal := append(append([]byte(walMagic), 1, 0, 0, 0, 0, 0, 0, 0), sealRecord(append([]byte{walSnapshotRec}, payload...))...)
		walSnap, _, trunc, werr := decodeWAL(wal)
		if werr != nil {
			t.Fatalf("decodeWAL: %v", werr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeSnapshot failed with %v, not ErrCorrupt", err)
			}
			if walSnap != nil || trunc == 0 {
				t.Fatal("decodeWAL kept a snapshot record decodeSnapshot rejects")
			}
			return
		}
		if trunc != 0 || !reflect.DeepEqual(walSnap, s) {
			t.Fatal("decodeWAL and decodeSnapshot disagree on the record")
		}
		p2 := encodeSnapshot(nil, s, s.dedup, s.nextSeg)
		if canonicalBlock(payload) && s.nextSeg != math.MaxUint64 && !bytes.Equal(p2, payload) {
			t.Fatal("an accepted snapshot re-encodes to other bytes")
		}
		s2, err := decodeSnapshot(p2)
		if err != nil {
			t.Fatalf("the re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(s2, s) {
			t.Fatal("the re-encoded snapshot decodes to a different snapshot")
		}
		if p3 := encodeSnapshot(nil, s2, s2.dedup, s2.nextSeg); !bytes.Equal(p3, p2) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// fuzzSegment returns a store directory holding one segment file, written
// by the store from a block of spans with every field filled and every
// other one owned, and the file's name.
func fuzzSegment(t testing.TB) (memFS, string) {
	fs := memFS{}
	st, _, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	block := trace.AppendSpanBlock(nil, fuzzSpans(1, 6), func(i int) bool { return i%2 == 0 })
	id, err := st.WriteSegment(block, nil)
	if err == nil {
		err = st.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return fs, segName(id)
}

// FuzzRecoverSegment mutates a segment file's span block beneath a
// re-sealed checksum and recovers the directory with Open. Open must not
// panic or fail and must allocate within allocBound of the file. Either the
// file is quarantined — decodeSegment rejects it with ErrCorrupt — or it is
// installed, and its records, read back through the installed file, are the
// ones the payload decodes to and re-encode to a block that decodes to them
// again: to the payload itself, byte for byte, when the payload is
// canonical (canonicalBlock). The store's own block is.
func FuzzRecoverSegment(f *testing.F) {
	// payload offset, xor, resize
	f.Add(uint16(0), byte(0), int8(0))       // untouched
	f.Add(uint16(0), byte(0xff), int8(0))    // the record count
	f.Add(uint16(0), byte(0), int8(1))       // a byte after the block
	f.Add(uint16(0), byte(0), int8(-1))      // the blob's last byte cut off
	f.Add(uint16(4+44), byte(0x07), int8(0)) // the first record's kind
	f.Add(uint16(4+45), byte(0x02), int8(0)) // a flag bit nothing reads
	f.Add(uint16(4+64), byte(0x10), int8(0)) // a tag table offset
	f.Add(uint16(4+80+76), byte(0x01), int8(0))
	f.Add(uint16(4+6*80), byte(0x01), int8(0)) // the tag table's count
	f.Fuzz(func(t *testing.T, off uint16, xor byte, resize int8) {
		fs, name := fuzzSegment(t)
		orig := fs[name]
		payload := mutatePayload(orig[segHeaderLen:], off, xor, resize)
		mutated := append(segHeader(len(payload), crc32.Checksum(payload, castagnoli)), payload...)
		fs[name] = mutated

		var (
			st  *Store
			rec *Recovery
			err error
		)
		if n := allocated(func() { st, rec, err = Open(fs, Options{}) }); n > allocBound(len(mutated)) {
			t.Fatalf("Open allocated %d bytes for a %d-byte segment (bound %d)", n, len(mutated), allocBound(len(mutated)))
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer st.Close()
		_, derr := decodeSegment(mutated)
		if len(rec.Segments) == 0 {
			if !slices.Equal(rec.Quarantined, []string{name}) {
				t.Fatalf("the segment was neither installed nor quarantined: %v", rec.Quarantined)
			}
			if !errors.Is(derr, ErrCorrupt) {
				t.Fatalf("quarantined a segment decodeSegment takes (%v)", derr)
			}
			return
		}
		if derr != nil || len(rec.Quarantined) != 0 {
			t.Fatalf("installed a segment decodeSegment rejects (%v), quarantined %v", derr, rec.Quarantined)
		}
		want, owned, rest, err := trace.DecodeSpanBlock(payload)
		if err != nil || len(rest) != 0 {
			t.Fatalf("installed a payload that is not one whole block: %v, %d bytes after it", err, len(rest))
		}
		file := rec.Segments[0].File
		win, _, err := file.Window(file.Pass(), 0, file.Len(), nil)
		if err != nil {
			t.Fatalf("the installed file does not read back: %v", err)
		}
		dec := win.Decoder()
		var arena trace.SpanStore
		for i := range want {
			if got := dec.Span(&arena, i); !reflect.DeepEqual(got, want[i]) || win.Owned(i) != ownedBit(owned, i) {
				t.Fatalf("record %d reads back as %+v (owned %v), the payload holds %+v (owned %v)", i, got, win.Owned(i), want[i], ownedBit(owned, i))
			}
		}
		again := trace.AppendSpanBlock(nil, want, func(i int) bool { return ownedBit(owned, i) })
		if canonicalBlock(payload) && !bytes.Equal(again, payload) {
			t.Fatal("the installed records re-encode to other bytes")
		}
		if spans, owned2, _, err := trace.DecodeSpanBlock(again); err != nil || !reflect.DeepEqual(spans, want) || !slices.Equal(owned2, owned) {
			t.Fatalf("the re-encoded block does not decode to the installed records: %v", err)
		}
	})
}
