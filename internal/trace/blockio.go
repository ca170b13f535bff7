package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file moves span blocks without holding them whole: a block is
// written from records other blocks hold — gathered, nothing decoded — and a
// block that lies in a file is read a window of records at a time
// (BlockFile). A writer that can patch a header once the block is out — a
// segment file, whose header its store writes at offset 0 afterwards, or a
// buffer the caller appends the block to — takes the block in one walk
// (StreamSpanBlock); the wire cannot, a frame's length coming first and an
// HTTP body never rewound, so View.WriteBinary walks twice (streamBlock).

// fillFunc fills rec from one span a walk handed out: a record of blk, or s.
type fillFunc func(e *blockScratch, rec []byte, blk *SpanBlock, i int, s *Span)

// blockOut writes a block out viewChunk bytes at a time: pieces gather in
// chunk, and a piece that does not fit an empty chunk — a table or the blob —
// is written from where it lies. The first write error latches in err, and
// nothing is written after it.
type blockOut struct {
	w     io.Writer
	chunk []byte
	err   error
}

func (o *blockOut) put(b []byte) bool {
	if len(o.chunk)+len(b) > cap(o.chunk) {
		if !o.write(o.chunk) {
			return false
		}
		o.chunk = o.chunk[:0]
		if len(b) > cap(o.chunk) {
			return o.write(b)
		}
	}
	o.chunk = append(o.chunk, b...)
	return true
}

func (o *blockOut) write(b []byte) bool {
	if o.err == nil {
		_, o.err = o.w.Write(b)
	}
	return o.err == nil
}

// finish writes the sections that follow the records — the tag table, the
// metric table and the blob, each behind its count — and what is left in
// the chunk.
func (o *blockOut) finish(e *blockScratch) error {
	var cnt [4]byte
	for _, sec := range [3]struct {
		n int
		b []byte
	}{{len(e.tags) / 16, e.tags}, {len(e.mets) / 16, e.mets}, {len(e.blob), e.blob}} {
		if !o.put(binary.LittleEndian.AppendUint32(cnt[:0], uint32(sec.n))) || !o.put(sec.b) {
			return o.err
		}
	}
	o.write(o.chunk)
	return o.err
}

// size is the size of the block of n records whose tables and blob e holds.
func (e *blockScratch) size(n int) int {
	return 4 + n*SpanRecordSize + 12 + len(e.tags) + len(e.mets) + len(e.blob)
}

// StreamSpanBlock writes to w the span block of the n records walk hands
// out, in that order, in one walk and without holding it: each 80-byte
// record is copied — owned flag and all — with its string and table offsets
// rebased as it goes out, and the tables and the blob, built meanwhile in the
// scratch from only the entries and strings those records reach, interned
// afresh, follow the last. The result is an ordinary version-1 block:
// DecodeSpanBlock reads from it the spans it would read from the sources.
// Nothing is decoded on the way. It returns the block's size. A walk error, a walk that hands out
// other than n records, or a write error ends the write, and nothing is
// written after it.
func StreamSpanBlock(w io.Writer, n int, walk func(yield func(blk *SpanBlock, i int) bool) error) (size int, err error) {
	e := blockScratchPool.Get().(*blockScratch)
	defer e.release()
	o := blockOut{w: w, chunk: make([]byte, 0, viewChunk)}
	var rec [SpanRecordSize]byte
	o.put(binary.LittleEndian.AppendUint32(rec[:0], uint32(n)))
	got := 0
	err = walk(func(blk *SpanBlock, i int) bool {
		if got++; got > n {
			return false
		}
		e.gather(rec[:], blk, i)
		return o.put(rec[:])
	})
	if err == nil && o.err == nil && got != n {
		err = fmt.Errorf("trace: a block of %d records walked %d", n, got)
	}
	if err = errors.Join(err, o.err); err != nil {
		return 0, err
	}
	return e.size(n), o.finish(e)
}

// streamBlock writes the span block built from what walk hands out, each
// record filled by fill, to w behind the bytes head returns for the block's
// size: StreamSpanBlock's block (AppendSpanBlock's for a span), written
// viewChunk bytes at a time and never held. It walks twice. The first pass
// interns every string and builds the tag and metric tables, which fixes the
// block's size; the second writes the head and the records, and then the
// tables and the blob. streamBlock returns walk's error, or the first write
// error, and writes nothing after it; an error in the first pass writes
// nothing at all.
func streamBlock(w io.Writer, walk func(yield func(blk *SpanBlock, i int, s *Span) bool) error, fill fillFunc, head func(size int) []byte) error {
	e := blockScratchPool.Get().(*blockScratch)
	defer e.release()
	var rec [SpanRecordSize]byte
	n := 0
	if err := walk(func(blk *SpanBlock, i int, s *Span) bool {
		fill(e, rec[:], blk, i, s)
		n++
		return true
	}); err != nil {
		return err
	}
	o := blockOut{w: w, chunk: append(make([]byte, 0, viewChunk), head(e.size(n))...)}
	o.put(binary.LittleEndian.AppendUint32(rec[:0], uint32(n)))
	e.tagN, e.metN, e.tabled = 0, 0, true
	put := 0
	if err := walk(func(blk *SpanBlock, i int, s *Span) bool {
		fill(e, rec[:], blk, i, s)
		put++
		return o.put(rec[:])
	}); err != nil || o.err != nil {
		return errors.Join(err, o.err)
	}
	if put != n {
		return fmt.Errorf("trace: a block of %d records walked %d the second time", n, put)
	}
	return o.finish(e)
}

// BlockFile is a validated span block that lies in a file, read a window of
// records at a time: what stays resident is its layout and its string blob.
// It holds no file: every read names the io.ReaderAt to read from, so the
// caller decides how long a handle lives.
type BlockFile struct {
	off        int64 // where the block starts
	n          int   // records
	tags, mets int   // table entries
	blob       []byte
}

// OpenBlockFile reads the layout and the blob of the span block that starts
// at off in r and ends by off+size: the counts of its records, tags and
// metrics and its blob, each checked to fit. The records and tables are not
// read, and a window of them is validated when it is (Window).
func OpenBlockFile(r io.ReaderAt, off, size int64) (BlockFile, error) {
	f := BlockFile{off: off}
	var cnt [4]byte
	at := off
	next := func(stride int64) (int, error) {
		if at+4 > off+size {
			return 0, fmt.Errorf("%w: block sections past its %d bytes", ErrBadFrame, size)
		}
		if err := readFull(r, cnt[:], at); err != nil {
			return 0, err
		}
		k := int64(binary.LittleEndian.Uint32(cnt[:]))
		at += 4 + k*stride
		return int(k), nil
	}
	var err error
	if f.n, err = next(SpanRecordSize); err != nil {
		return BlockFile{}, err
	}
	if f.tags, err = next(16); err != nil {
		return BlockFile{}, err
	}
	if f.mets, err = next(16); err != nil {
		return BlockFile{}, err
	}
	blobLen, err := next(1)
	if err != nil {
		return BlockFile{}, err
	}
	if at > off+size {
		return BlockFile{}, fmt.Errorf("%w: block sections past its %d bytes", ErrBadFrame, size)
	}
	f.blob = make([]byte, blobLen)
	if err := readFull(r, f.blob, at-int64(blobLen)); err != nil {
		return BlockFile{}, err
	}
	return f, nil
}

// readFull reads len(p) bytes at off; reaching the end of the file exactly
// at the last one is no error.
func readFull(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// Len returns the number of records.
func (f *BlockFile) Len() int { return f.n }

// Window reads records [lo, hi) from r, with the table entries they reach,
// as one validated span block: record i of the window is record lo+i of the
// file's, its table offsets rebased onto the window's tables, and the blob
// is the resident one, shared. A window reads three ranges — the records
// and the one stretch of each table they reach, contiguous for every block
// the codec writes — into buf's array when it has room, and returns the
// array it used, for the next window: a reader that passes it back reuses
// it, so a window is good until the next is read.
func (f *BlockFile) Window(r io.ReaderAt, lo, hi int, buf []byte) (SpanBlock, []byte, error) {
	le := binary.LittleEndian
	n := hi - lo
	recLen := 4 + n*SpanRecordSize
	if cap(buf) < recLen {
		buf = make([]byte, 0, recLen+recLen/2)
	}
	b := buf[:recLen]
	le.PutUint32(b, uint32(n))
	recOff := f.off + 4
	if err := readFull(r, b[4:], recOff+int64(lo)*SpanRecordSize); err != nil {
		return SpanBlock{}, buf, err
	}
	blk := SpanBlock{b: b, n: n, blob: f.blob}
	tLo, tHi, err := blk.reach(64, f.tags)
	if err != nil {
		return SpanBlock{}, buf, err
	}
	mLo, mHi, err := blk.reach(72, f.mets)
	if err != nil {
		return SpanBlock{}, buf, err
	}
	if need := recLen + 16*(tHi-tLo+mHi-mLo); cap(buf) < need {
		buf = append(make([]byte, 0, need+need/4), b...)
		blk.b = buf[:recLen]
	}
	tagOff := recOff + int64(f.n)*SpanRecordSize + 4
	metOff := tagOff + int64(f.tags)*16 + 4
	at := recLen
	for _, t := range [2]struct {
		sec     *[]byte
		off     int64
		from    int
		to, fld int
	}{{&blk.tags, tagOff, tLo, tHi, 64}, {&blk.mets, metOff, mLo, mHi, 72}} {
		if t.to == 0 {
			continue
		}
		*t.sec = buf[at : at+16*(t.to-t.from) : at+16*(t.to-t.from)]
		at += len(*t.sec)
		if err := readFull(r, *t.sec, t.off+int64(t.from)*16); err != nil {
			return SpanBlock{}, buf, err
		}
		blk.rebase(t.fld, t.from)
	}
	if err := blk.check(); err != nil {
		return SpanBlock{}, buf, err
	}
	return blk, buf, nil
}

// reach returns the stretch [first, end) of a table of table entries the
// records reach through their field at: end 0 when none reaches it.
func (blk *SpanBlock) reach(at, table int) (first, end int, err error) {
	le := binary.LittleEndian
	first = table
	for i := 0; i < blk.n; i++ {
		rec := blk.rec(i)
		if from, cnt := int(le.Uint32(rec[at:])), int(le.Uint32(rec[at+4:])); cnt > 0 {
			first, end = min(first, from), max(end, from+cnt)
		}
	}
	if end > table {
		return 0, 0, fmt.Errorf("%w: a record reaches past its table of %d entries", ErrBadFrame, table)
	}
	return min(first, end), end, nil
}

// rebase moves the reaches in field at of the records that reach a table
// back by first: onto the stretch of it a window holds.
func (blk *SpanBlock) rebase(at, first int) {
	le := binary.LittleEndian
	for i := 0; i < blk.n; i++ {
		if rec := blk.rec(i); le.Uint32(rec[at+4:]) > 0 {
			le.PutUint32(rec[at:], le.Uint32(rec[at:])-uint32(first))
		}
	}
}
