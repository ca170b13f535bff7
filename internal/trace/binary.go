package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"

	"xsp/internal/vclock"
)

// This file is the binary span codec — one layout shared by every binary
// consumer in the tree: the HTTP wire format (EncodeBinary/DecodeBinary,
// content type ContentTypeBinary), segio's segment files and WAL records
// (which wrap AppendSpanBlock/DecodeSpanBlock), and core.StreamCorrelator's
// folded history, which holds its spans as span blocks and decodes one only
// when somebody reads it.
//
// The span block is: a count, then fixed 80-byte span records, then the
// tag and metric entry tables, then a single shared string blob. Fixed
// records up front make a block addressable, not only shippable: a holder
// that has validated one (ParseSpanBlock) reads span i's id, parent,
// interval, level, kind, correlation id and owned flag at a constant offset
// (the SpanBlock accessors, RecordLess), decodes that one record (SpanDecoder),
// and gathers records of several blocks into a new block (StreamSpanBlock)
// without decoding any — which is what lets spans be kept, sorted, merged
// and written to a file as encoded bytes plus record references. The same
// fixed offsets let DecodeBinary put a batch in canonical order before it
// decodes a span: it reads each record's sort key (begin, level, id) into a
// pooled array, orders the keys and fills its span slots in key order, so
// no pointer is sorted and the slots lie in the order they are read. The
// decoder materializes the blob as one Go string, so every name, source,
// tag key, and tag value is a zero-copy substring of a single allocation
// rather than a per-field copy. Decoded Span structs themselves come out of
// a SpanStore arena (one allocation per storeChunkSpans spans) and their
// tags and metrics, flat pairs, out of one entry arena per block (a
// recycling decode refills freed entry arrays first), so decoding a batch
// costs O(1) allocations, whatever its spans carry. Entries are written and
// read in the order the span holds them, so encoding is deterministic: the
// same spans give the same bytes, and a block AppendSpanBlock wrote decodes
// to spans it encodes to those bytes again.
//
// Fixed records also let the encoder write where the bytes are going:
// AppendSpanBlock counts the spans, grows the caller's buffer once and
// fills each record in place at its offset. Only the variable-size parts
// (entry tables, blob, intern table) pass through a pooled scratch, and
// they are copied out of it: the returned slice never aliases the scratch.
//
// Each record carries a flags byte; bit 0 ("owned") marks spans whose
// ParentID a correlator derived online rather than received from the
// tracer. segio's recovery strips derived parents and re-derives them by
// replay, so a provisional link can never fossilize across a restart.
// The HTTP paths never set it.
//
// On the wire the block is wrapped in a length-prefixed frame:
//
//	offset 0: 4-byte magic "XSPB"
//	offset 4: 1-byte format version (1 or 2)
//	offset 5: 4-byte little-endian payload length
//	offset 9: payload (one span block)
//
// Version 2 carries a tenant key between the version byte and the payload
// length — one length byte, then that many key bytes:
//
//	offset 0: 4-byte magic "XSPB"
//	offset 4: 1-byte format version (2)
//	offset 5: 1-byte tenant key length
//	offset 6: tenant key bytes
//	      +0: 4-byte little-endian payload length
//	      +4: payload (one span block)
//
// Encoders emit version 1 whenever the tenant is the zero value (empty or
// DefaultTenant), so tenantless frames are byte-for-byte what PR-8-era
// encoders produced and old decoders keep reading them. The version byte
// is checked on decode, so the layout can evolve without old servers
// misreading new frames; unknown versions and corrupt or truncated
// payloads fail with ErrBadFrame and decode nothing.

const (
	// SpanRecordSize is the fixed size of one encoded span record inside
	// a span block.
	SpanRecordSize = 80

	flagOwned = 1 << 0

	// ContentTypeBinary is the MIME type of the framed binary span batch
	// on the HTTP wire; ContentTypeJSON is the JSON alternative. The
	// server content-negotiates /api/spans between them.
	ContentTypeBinary = "application/x-xsp-spans"
	ContentTypeJSON   = "application/json"

	wireMagic         = "XSPB"
	wireVersion       = 1
	wireVersionTenant = 2

	// frameHeaderSize is magic + version + payload length.
	frameHeaderSize = len(wireMagic) + 1 + 4

	// maxFramePayload bounds a frame's declared payload, far above any real
	// batch. It does not bound allocation — the server caps request bodies
	// only under admission budgets — so DecodeBinary allocates what it
	// reads, never what the prefix declares.
	maxFramePayload = 1 << 30
)

// ErrBadFrame is wrapped by every binary decode failure: bad magic,
// unknown version, truncated or corrupt payload. A failed decode returns
// no spans — there are no partial results to publish.
var ErrBadFrame = errors.New("trace: bad span frame")

// blockScratch holds the variable-size parts of a span block — tag and
// metric entries, the string blob and its intern table — while the fixed
// records are written in place. Scratches are pooled and reset by
// truncation; an encoded block holds copies, never the scratch's memory.
type blockScratch struct {
	tags []byte
	mets []byte
	blob []byte
	pos  map[string]uint32 // interned blob offsets: names and sources repeat heavily
	// seen is a direct-mapped cache in front of pos, keyed by a string's
	// identity (data pointer, length) instead of its content: the names of
	// decoded spans are substrings of one blob and a tracer's are literals, so
	// a repeat is nearly always the very same bytes and skips the hash. The
	// addresses are never dereferenced, and mean something only while the
	// strings they came from are alive and unchanged — the one encode call,
	// whose spans (or source blocks) hold them; finish clears the cache with
	// the map.
	seen [256]struct {
		data    uintptr
		n1, off uint32 // length plus one, so the zero slot matches nothing
	}
	// tagN and metN count the tag and metric entries the records put or
	// gathered so far reach: where the next record's entries start. Once
	// tabled is set — a second pass over records a first pass already
	// tabled (View.WriteBinary) — the tables and the blob are complete, and
	// put and gather only count and look up.
	tagN, metN uint32
	tabled     bool
}

// maxPooledScratch is the most buffer capacity a scratch may take back to
// the pool: room for the tables of a ~200k-span segment.
const maxPooledScratch = 8 << 20

var blockScratchPool = sync.Pool{New: func() any { return &blockScratch{pos: make(map[string]uint32)} }}

// intern returns where s sits in the blob, appending it on first sight. The
// identity cache only ever answers what pos would: the bytes written are the
// same with or without it.
func (e *blockScratch) intern(s string) (off, n uint32) {
	n = uint32(len(s))
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	slot := &e.seen[(uint64(p)*0x9E3779B97F4A7C15)>>56]
	if slot.data == p && slot.n1 == n+1 {
		return slot.off, n
	}
	off, ok := e.pos[s]
	if !ok {
		off = uint32(len(e.blob))
		e.pos[s] = off
		e.blob = append(e.blob, s...)
	}
	slot.data, slot.n1, slot.off = p, n+1, off
	return off, n
}

// finish appends the tables and the blob behind the records already in buf,
// and hands the scratch back to the pool.
func (e *blockScratch) finish(buf []byte) []byte {
	buf = slices.Grow(buf, 12+len(e.tags)+len(e.mets)+len(e.blob))
	buf = e.appendTables(buf)
	e.release()
	return buf
}

// appendTables appends the tag table, the metric table and the blob, each
// behind its count: the sections that follow a block's records.
func (e *blockScratch) appendTables(buf []byte) []byte {
	le := binary.LittleEndian
	buf = append(le.AppendUint32(buf, uint32(len(e.tags)/16)), e.tags...)
	buf = append(le.AppendUint32(buf, uint32(len(e.mets)/16)), e.mets...)
	return append(le.AppendUint32(buf, uint32(len(e.blob))), e.blob...)
}

// release hands the scratch back to the pool. A scratch in steady use never
// leaves the pool: one a whole-history snapshot grew is dropped rather than
// kept alive by 1k-span records.
func (e *blockScratch) release() {
	if cap(e.tags)+cap(e.mets)+cap(e.blob) <= maxPooledScratch {
		e.tags, e.mets, e.blob = e.tags[:0], e.mets[:0], e.blob[:0]
		e.tagN, e.metN, e.tabled = 0, 0, false
		clear(e.pos)
		clear(e.seen[:])
		blockScratchPool.Put(e)
	}
}

// put fills rec, one span's record, in place, and appends the span's table
// entries (only counts them once e is tabled). rec may be dirty spare
// capacity, so every byte is written, flags and padding included.
func (e *blockScratch) put(rec []byte, s *Span, owned bool) {
	_ = rec[SpanRecordSize-1]
	le := binary.LittleEndian
	le.PutUint64(rec[0:], s.ID)
	le.PutUint64(rec[8:], s.ParentID)
	le.PutUint64(rec[16:], s.CorrelationID)
	le.PutUint64(rec[24:], uint64(s.Begin))
	le.PutUint64(rec[32:], uint64(s.End))
	le.PutUint32(rec[40:], uint32(int32(s.Level)))
	rec[44], rec[45], rec[46], rec[47] = byte(s.Kind), 0, 0, 0
	if owned {
		rec[45] = flagOwned
	}
	off, n := e.intern(s.Name)
	le.PutUint32(rec[48:], off)
	le.PutUint32(rec[52:], n)
	off, n = e.intern(s.Source)
	le.PutUint32(rec[56:], off)
	le.PutUint32(rec[60:], n)
	e.tagN, e.metN = putReach(rec[64:], e.tagN, len(s.Tags)), putReach(rec[72:], e.metN, len(s.Metrics))
	if e.tabled {
		return
	}
	for _, t := range s.Tags {
		off, n = e.intern(t.Key)
		e.tags = le.AppendUint32(le.AppendUint32(e.tags, off), n)
		off, n = e.intern(t.Value)
		e.tags = le.AppendUint32(le.AppendUint32(e.tags, off), n)
	}
	for _, m := range s.Metrics {
		off, n = e.intern(m.Key)
		e.mets = le.AppendUint32(le.AppendUint32(e.mets, off), n)
		e.mets = le.AppendUint64(e.mets, math.Float64bits(m.Value))
	}
}

// putReach writes a record's reach into a table — the first entry, at, and the
// count — into ent and returns where the next record's entries start.
func putReach(ent []byte, at uint32, count int) uint32 {
	binary.LittleEndian.PutUint32(ent[0:], at)
	binary.LittleEndian.PutUint32(ent[4:], uint32(count))
	return at + uint32(count)
}

// gather copies record i of src into rec, owned flag and all, rebasing its
// string and table offsets onto e's blob and tables, and appends the table
// entries it reaches, their strings interned afresh (only counted once e is
// tabled).
func (e *blockScratch) gather(rec []byte, src *SpanBlock, i int) {
	le := binary.LittleEndian
	copy(rec[:SpanRecordSize], src.rec(i))
	for _, at := range [2]int{48, 56} { // name, source
		off, n := e.intern(src.str(rec[at:]))
		le.PutUint32(rec[at:], off)
		le.PutUint32(rec[at+4:], n)
	}
	tOff, tCnt := int(le.Uint32(rec[64:])), int(le.Uint32(rec[68:]))
	mOff, mCnt := int(le.Uint32(rec[72:])), int(le.Uint32(rec[76:]))
	e.tagN, e.metN = putReach(rec[64:], e.tagN, tCnt), putReach(rec[72:], e.metN, mCnt)
	if e.tabled {
		return
	}
	for j := tOff; j < tOff+tCnt; j++ {
		ent := src.tags[j*16:]
		off, n := e.intern(src.str(ent[0:]))
		e.tags = le.AppendUint32(le.AppendUint32(e.tags, off), n)
		off, n = e.intern(src.str(ent[8:]))
		e.tags = le.AppendUint32(le.AppendUint32(e.tags, off), n)
	}
	for j := mOff; j < mOff+mCnt; j++ {
		ent := src.mets[j*16:]
		off, n := e.intern(src.str(ent[0:]))
		e.mets = append(le.AppendUint32(le.AppendUint32(e.mets, off), n), ent[8:16]...)
	}
}

// AppendSpanBlock encodes spans (with their owned flags) onto buf and
// returns the extended buffer. Nil spans are skipped. owned may be nil
// (no span owned); otherwise owned(i) reports whether spans[i] carries a
// correlator-derived parent. buf grows at most twice — once for the
// records, whose size is known up front, once for the rest.
func AppendSpanBlock(buf []byte, spans []*Span, owned func(i int) bool) []byte {
	count := 0
	for _, s := range spans {
		if s != nil {
			count++
		}
	}
	le := binary.LittleEndian
	at := len(buf) + 4
	buf = slices.Grow(buf, 4+count*SpanRecordSize)[:at+count*SpanRecordSize]
	le.PutUint32(buf[at-4:], uint32(count))
	e := blockScratchPool.Get().(*blockScratch)
	for i, s := range spans {
		if s != nil {
			e.put(buf[at:at+SpanRecordSize], s, owned != nil && owned(i))
			at += SpanRecordSize
		}
	}
	return e.finish(buf)
}

// BlockReader walks a span block, or the fields a record carries after one,
// with running bounds checks; the first violation latches an error wrapping
// ErrBadFrame and zeroes every later read, so a truncated or bit-flipped
// record surfaces as an error instead of a panic.
type BlockReader struct {
	b   []byte
	off int
	err error
}

// NewBlockReader reads b from its start.
func NewBlockReader(b []byte) *BlockReader { return &BlockReader{b: b} }

// Err is the first violation, or nil.
func (r *BlockReader) Err() error { return r.err }

// Len is how many bytes are left to read.
func (r *BlockReader) Len() int { return len(r.b) - r.off }

// Bytes reads the next n bytes, shared with the input: nil past the end.
func (r *BlockReader) Bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		if r.err == nil {
			r.err = fmt.Errorf("%w: truncated span block at offset %d", ErrBadFrame, r.off)
		}
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// U32 reads the next little-endian uint32: 0 past the end.
func (r *BlockReader) U32() uint32 {
	b := r.Bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// SpanBlock is an encoded span block that passed ParseSpanBlock, read where
// it lies: every offset a record or a table entry holds is known to be in
// bounds, so the accessors need no error and cannot panic. The bytes are
// shared, not copied, and must not change while the SpanBlock is in use —
// which is what lets a holder keep spans as these 80-byte records plus their
// share of the tables instead of as decoded Spans. The zero SpanBlock is empty.
type SpanBlock struct {
	b                []byte // the block, count through blob
	n                int    // records
	tags, mets, blob []byte // its three trailing sections, inside b
}

// ParseSpanBlock validates the span block at the head of b — every section
// inside b, every record's kind known, every string and table entry a
// record reaches inside its section — and returns it with the bytes that
// follow. It fails exactly when DecodeSpanBlock does (which is built on it);
// errors wrap ErrBadFrame.
func ParseSpanBlock(b []byte) (blk SpanBlock, rest []byte, err error) {
	r := NewBlockReader(b)
	count := int(r.U32())
	r.Bytes(count * SpanRecordSize)
	blk.tags = r.Bytes(int(r.U32()) * 16)
	blk.mets = r.Bytes(int(r.U32()) * 16)
	blk.blob = r.Bytes(int(r.U32()))
	if r.err != nil {
		return SpanBlock{}, nil, r.err
	}
	blk.b, blk.n = b[:r.off:r.off], count
	if err := blk.check(); err != nil {
		return SpanBlock{}, nil, err
	}
	return blk, b[r.off:], nil
}

// check validates every record of a block whose sections are in place:
// its kind known, every string and table entry it reaches inside its
// section.
func (blk *SpanBlock) check() error {
	le := binary.LittleEndian
	tagN, metN := len(blk.tags)/16, len(blk.mets)/16
	inBlob := func(ent []byte) bool {
		return int64(le.Uint32(ent[0:]))+int64(le.Uint32(ent[4:])) <= int64(len(blk.blob))
	}
	bad := func(i int, what string) error {
		return fmt.Errorf("%w: span %d %s", ErrBadFrame, i, what)
	}
	for i := 0; i < blk.n; i++ {
		rec := blk.rec(i)
		if k := Kind(rec[44]); k != KindSync && k != KindLaunch && k != KindExec {
			return bad(i, fmt.Sprintf("has unknown kind %d", rec[44]))
		}
		if !inBlob(rec[48:]) || !inBlob(rec[56:]) {
			return bad(i, "name or source out of blob bounds")
		}
		tOff, tCnt := int(le.Uint32(rec[64:])), int(le.Uint32(rec[68:]))
		if tCnt > 0 && tOff+tCnt > tagN {
			return bad(i, "tag table out of bounds")
		}
		for j := tOff; j < tOff+tCnt; j++ {
			if ent := blk.tags[j*16:]; !inBlob(ent[0:]) || !inBlob(ent[8:]) {
				return bad(i, "tag out of blob bounds")
			}
		}
		mOff, mCnt := int(le.Uint32(rec[72:])), int(le.Uint32(rec[76:]))
		if mCnt > 0 && mOff+mCnt > metN {
			return bad(i, "metric table out of bounds")
		}
		for j := mOff; j < mOff+mCnt; j++ {
			if !inBlob(blk.mets[j*16:]) {
				return bad(i, "metric key out of blob bounds")
			}
		}
	}
	return nil
}

// Bytes returns the encoded block: what ParseSpanBlock was given, less the
// bytes that followed it.
func (b *SpanBlock) Bytes() []byte { return b.b }

// Len returns the number of records.
func (b *SpanBlock) Len() int { return b.n }

// rec returns record i, which must be in [0, Len()).
func (b *SpanBlock) rec(i int) []byte { return b.b[4+i*SpanRecordSize:][:SpanRecordSize] }

// The record accessors: one fixed-offset read each, no decode.

func (b *SpanBlock) u64(i, at int) uint64 { return binary.LittleEndian.Uint64(b.rec(i)[at:]) }

func (b *SpanBlock) ID(i int) uint64            { return b.u64(i, 0) }
func (b *SpanBlock) ParentID(i int) uint64      { return b.u64(i, 8) }
func (b *SpanBlock) CorrelationID(i int) uint64 { return b.u64(i, 16) }
func (b *SpanBlock) Begin(i int) vclock.Time    { return vclock.Time(b.u64(i, 24)) }
func (b *SpanBlock) End(i int) vclock.Time      { return vclock.Time(b.u64(i, 32)) }
func (b *SpanBlock) Level(i int) Level          { return Level(int32(b.u64(i, 40))) } // the low half of the word at 40
func (b *SpanBlock) Kind(i int) Kind            { return Kind(b.rec(i)[44]) }

// Owned reports record i's owned flag: its ParentID was derived by a
// correlator, not received from the tracer.
func (b *SpanBlock) Owned(i int) bool { return b.rec(i)[45]&flagOwned != 0 }

// RecordLess is CanonicalLess over two records, read in place.
func RecordLess(a *SpanBlock, i int, b *SpanBlock, j int) bool {
	if x, y := a.Begin(i), b.Begin(j); x != y {
		return x < y
	}
	if x, y := a.Level(i), b.Level(j); x != y {
		return x < y
	}
	return a.ID(i) < b.ID(j)
}

// entryCounts returns record i's tag and metric counts.
func (b *SpanBlock) entryCounts(i int) (tags, mets int) {
	rec := b.rec(i)
	return int(binary.LittleEndian.Uint32(rec[68:])), int(binary.LittleEndian.Uint32(rec[76:]))
}

// SpanDecoder decodes the records of one block one at a time. The spans it
// returns share one copy of the block's string blob — every name, source,
// tag key and tag value a zero-copy substring of it — and one arena of tag
// and metric entries, and nothing with the block itself.
type SpanDecoder struct {
	blk  SpanBlock
	blob string
	// The entry arenas: each span's Tags and Metrics are carved off the spare
	// capacity, which is sized on first use to the block's whole table — what
	// the records of a block from AppendSpanBlock or StreamSpanBlock add up to
	// — or, in a recycling decode, up front to what the free pieces lack.
	tags []Tag
	mets []Metric
}

// Decoder copies the block's blob into a string and returns a decoder over it.
func (b *SpanBlock) Decoder() SpanDecoder { return SpanDecoder{blk: *b, blob: string(b.blob)} }

func (d *SpanDecoder) str(ent []byte) string {
	off, n := binary.LittleEndian.Uint32(ent[0:]), binary.LittleEndian.Uint32(ent[4:])
	return d.blob[off : off+n]
}

// carve returns n fresh entries off the end of arena with no capacity to
// spare, so appending to one span's entries can never write into the next
// span's. n is at most table, the block's entry count (ParseSpanBlock checked
// it). An arena that runs out — the records reach the table more than once,
// which no encoder here writes — is left to the spans carved from it and
// replaced.
func carve[T any](arena *[]T, n, table int) []T {
	if cap(*arena)-len(*arena) < n {
		*arena = make([]T, 0, table)
	}
	at := len(*arena)
	*arena = (*arena)[:at+n]
	return (*arena)[at : at+n : at+n]
}

// Span decodes record i into a span carved from st's arena, exactly as
// DecodeSpanBlock would: ParentID as recorded, whatever the owned flag says,
// tags and metrics in table order (nil when the record has none).
func (d *SpanDecoder) Span(st *SpanStore, i int) *Span {
	s := st.Alloc()
	d.fill(s, i)
	return s
}

// fill decodes record i into s, a zero span but for Tags and Metrics: either
// nil, or a piece as long as the record's entries, which fill overwrites.
func (d *SpanDecoder) fill(s *Span, i int) {
	le := binary.LittleEndian
	rec := d.blk.rec(i)
	s.ID = le.Uint64(rec[0:])
	s.ParentID = le.Uint64(rec[8:])
	s.CorrelationID = le.Uint64(rec[16:])
	s.Begin = vclock.Time(le.Uint64(rec[24:]))
	s.End = vclock.Time(le.Uint64(rec[32:]))
	s.Level = Level(int32(le.Uint32(rec[40:])))
	s.Kind = Kind(rec[44])
	s.Name = d.str(rec[48:])
	s.Source = d.str(rec[56:])
	if tOff, tCnt := int(le.Uint32(rec[64:])), int(le.Uint32(rec[68:])); tCnt > 0 {
		if len(s.Tags) != tCnt {
			s.Tags = carve(&d.tags, tCnt, len(d.blk.tags)/16)
		}
		for j := range s.Tags {
			ent := d.blk.tags[(tOff+j)*16:]
			s.Tags[j] = Tag{d.str(ent[0:]), d.str(ent[8:])}
		}
	}
	if mOff, mCnt := int(le.Uint32(rec[72:])), int(le.Uint32(rec[76:])); mCnt > 0 {
		if len(s.Metrics) != mCnt {
			s.Metrics = carve(&d.mets, mCnt, len(d.blk.mets)/16)
		}
		for j := range s.Metrics {
			ent := d.blk.mets[(mOff+j)*16:]
			s.Metrics[j] = Metric{d.str(ent[0:]), math.Float64frombits(le.Uint64(ent[8:]))}
		}
	}
}

// str views one blob string of the block without copying it: for the
// encoder's intern table, which copies what it keeps.
func (b *SpanBlock) str(ent []byte) string {
	off, n := binary.LittleEndian.Uint32(ent[0:]), binary.LittleEndian.Uint32(ent[4:])
	if n == 0 {
		return ""
	}
	return unsafe.String(&b.blob[off], n)
}

// DecodeSpanBlock decodes one span block from b, returning the spans in
// record order, their owned bitset, and the remaining bytes after the block.
// Spans are carved from a fresh arena. Errors wrap ErrBadFrame.
func DecodeSpanBlock(b []byte) (spans []*Span, owned []uint64, rest []byte, err error) {
	blk, rest, err := ParseSpanBlock(b)
	if err != nil {
		return nil, nil, nil, err
	}
	d := blk.Decoder()
	var st SpanStore
	spans = st.allocBatch(blk.Len())
	owned = make([]uint64, (len(spans)+63)/64)
	for i, s := range spans {
		d.fill(s, i)
		if blk.Owned(i) {
			owned[i/64] |= 1 << (i % 64)
		}
	}
	return spans, owned, rest, nil
}

// recordKey is one record's place in canonical order: CanonicalLess's
// fields, read off the record, and the record's index, which breaks the
// full ties (duplicate IDs) in record order.
type recordKey struct {
	begin vclock.Time
	id    uint64
	level int32 // as the record holds it
	rec   uint32
}

func lessKeys(a, b recordKey) bool {
	if a.begin != b.begin {
		return a.begin < b.begin
	}
	if a.level != b.level {
		return a.level < b.level
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.rec < b.rec
}

// keyPool recycles decodeCanonical's key arrays, up to the keys of the
// largest frame framePool keeps: 24 KB a 1k-span batch.
var keyPool = sync.Pool{New: func() any { return new([]recordKey) }}

const maxPooledKeys = maxPooledFrame / SpanRecordSize

// decodeCanonical decodes a validated block into a recycling store's slots
// in canonical order: it reads each record's key into a pooled array,
// orders the keys (SortAdaptive: a tracer's batch is nearly in order) and
// fills the slots in key order, so the batch leaves in order with its
// carved slots in that order in memory, and no pointer is sorted.
func decodeCanonical(blk *SpanBlock) []*Span {
	kp := keyPool.Get().(*[]recordKey)
	keys := slices.Grow((*kp)[:0], blk.Len())[:blk.Len()]
	le := binary.LittleEndian
	for i := range keys {
		rec := blk.rec(i)
		keys[i] = recordKey{begin: vclock.Time(le.Uint64(rec[24:])), id: le.Uint64(rec[0:]),
			level: int32(le.Uint32(rec[40:])), rec: uint32(i)}
	}
	SortAdaptive(keys, lessKeys)
	st := SpanStore{recycle: true}
	spans := st.allocBatch(len(keys))
	d := blk.Decoder()
	tags, mets := takePieces(blk, spans, keys)
	d.tags, d.mets = make([]Tag, 0, tags), make([]Metric, 0, mets)
	for i, s := range spans {
		d.fill(s, int(keys[i].rec))
	}
	if cap(keys) <= maxPooledKeys {
		*kp = keys[:0]
		keyPool.Put(kp)
	}
	return spans
}

// IsBinaryFrame reports whether prefix starts a framed binary span batch
// — at least frame-header length and carrying the magic. Tools reading a
// trace file of unknown format peek this before choosing DecodeBinary or
// DecodeJSON.
func IsBinaryFrame(prefix []byte) bool {
	return len(prefix) >= frameHeaderSize && string(prefix[:len(wireMagic)]) == wireMagic
}

// AppendBinaryFrameTenant encodes spans as one framed binary batch (header
// + span block) onto buf and returns the extended buffer. The frame is what
// EncodeBinary writes and DecodeBinary reads. A zero tenant (empty or
// DefaultTenant) emits a version-1 frame — old decoders read it, and a
// tenantless round trip stays byte-exact with the pre-tenant format; any
// other key emits version 2.
// The key must satisfy ValidateTenant (enforced at every ingress); an
// invalid key here is a programming error and panics.
func AppendBinaryFrameTenant(buf []byte, tenant string, spans []*Span) []byte {
	buf = appendFrameHeader(buf, tenant, 0) // payload length, patched below
	payloadAt := len(buf)
	buf = AppendSpanBlock(buf, spans, nil)
	binary.LittleEndian.PutUint32(buf[payloadAt-4:], uint32(len(buf)-payloadAt))
	return buf
}

// appendFrameHeader appends a frame's header, up to and including its
// payload length: version 1 for a zero tenant, version 2 with the key
// otherwise. An invalid key panics (see AppendBinaryFrameTenant).
func appendFrameHeader(buf []byte, tenant string, payload uint32) []byte {
	if tenant == DefaultTenant {
		tenant = ""
	}
	buf = append(buf, wireMagic...)
	if tenant == "" {
		buf = append(buf, wireVersion)
	} else {
		if err := ValidateTenant(tenant); err != nil {
			panic(err)
		}
		buf = append(buf, wireVersionTenant, byte(len(tenant)))
		buf = append(buf, tenant...)
	}
	return binary.LittleEndian.AppendUint32(buf, payload)
}

// EncodeBinary writes the trace to w as one framed binary span batch —
// the compact alternative to EncodeJSON. The trace's Tenant rides the
// frame header (zero value: a version-1 tenantless frame). DecodeBinary
// reads it back.
func (t *Trace) EncodeBinary(w io.Writer) error {
	buf := AppendBinaryFrameTenant(nil, t.Tenant, t.Spans)
	_, err := w.Write(buf)
	return err
}

// framePool recycles DecodeBinary's payload buffers, never one above
// maxPooledFrame: a ~1k-span ingest batch is ~116 KB of garbage otherwise.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 1 << 20

// DecodeBinary reads one framed binary span batch written by EncodeBinary
// (or AppendBinaryFrameTenant) and returns the decoded trace in canonical
// begin order, exactly like DecodeJSON. The order comes from the records'
// keys, not from sorting spans: once the block is validated, each record's
// (Begin, Level, ID, index) is read into a pooled key array, the keys are
// ordered by SortAdaptive — one scan for a batch in order, O(inversions)
// for a tracer's nearly ordered one, O(n log n) at worst — and the spans
// are decoded in key order, full ties in record order. They are decoded
// straight into recycled slots and entry arrays (see RecycleSpans) and,
// past those, fresh arenas: at most one allocation per storeChunkSpans
// spans and one per entry table, with every string a zero-copy substring
// of the frame's shared blob. Any framing or payload problem — bad magic,
// unknown version, truncated body, corrupt block, trailing garbage —
// returns an error wrapping ErrBadFrame and no spans.
func DecodeBinary(r io.Reader) (*Trace, error) {
	t, frame, err := decodeFrame(r)
	releaseFrame(frame)
	return t, err
}

// decodeFrame is DecodeBinary that lends the frame's payload: *frame is its
// span block, validated, with every record's owned flag cleared — the batch
// as it arrived, which no tracer owns — good until releaseFrame hands the
// buffer back to framePool. On an error the buffer is back already.
func decodeFrame(r io.Reader) (t *Trace, frame *[]byte, err error) {
	var hdr [len(wireMagic) + 1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: short frame header: %v", ErrBadFrame, err)
	}
	if string(hdr[:len(wireMagic)]) != wireMagic {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrBadFrame, hdr[:len(wireMagic)])
	}
	var tenant string
	switch v := hdr[len(wireMagic)]; v {
	case wireVersion:
	case wireVersionTenant:
		var tl [1]byte
		if _, err := io.ReadFull(r, tl[:]); err != nil {
			return nil, nil, fmt.Errorf("%w: short tenant length: %v", ErrBadFrame, err)
		}
		key := make([]byte, tl[0])
		if _, err := io.ReadFull(r, key); err != nil {
			return nil, nil, fmt.Errorf("%w: short tenant key: %v", ErrBadFrame, err)
		}
		tenant = string(key)
		if err := ValidateTenant(tenant); err != nil || tenant == "" {
			return nil, nil, fmt.Errorf("%w: bad tenant key %q", ErrBadFrame, tenant)
		}
	default:
		return nil, nil, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, v)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: short payload length: %v", ErrBadFrame, err)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > maxFramePayload {
		return nil, nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrBadFrame, n)
	}
	// The declared length is a claim: allocate as the bytes arrive, in
	// doubling steps past the first MiB. Up to there the buffer is pooled:
	// nothing decoded aliases it (the blob is copied into one string, records
	// and entry tables are read by value), so once the caller is done with
	// the block it lends, it is garbage.
	bp := framePool.Get().(*[]byte)
	first := int(min(n, maxPooledFrame))
	payload := *bp
	if cap(payload) < first {
		payload = make([]byte, first)
	}
	payload = payload[:first]
	defer func() {
		if err != nil {
			*bp = payload
			releaseFrame(bp)
		}
	}()
	for read := 0; ; {
		if _, err := io.ReadFull(r, payload[read:]); err != nil {
			return nil, nil, fmt.Errorf("%w: short payload: %v", ErrBadFrame, err)
		}
		if read = len(payload); read == int(n) {
			break
		}
		payload = append(payload, make([]byte, min(read, int(n)-read))...)
	}
	blk, rest, err := ParseSpanBlock(payload)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after span block", ErrBadFrame, len(rest))
	}
	for i := range blk.Len() {
		blk.rec(i)[45] &^= flagOwned
	}
	*bp = payload
	return &Trace{Spans: decodeCanonical(&blk), Tenant: tenant}, bp, nil
}

// releaseFrame hands a frame decodeFrame lent back to framePool, unless it
// grew past maxPooledFrame. A nil frame is none.
func releaseFrame(frame *[]byte) {
	if frame != nil && cap(*frame) <= maxPooledFrame {
		*frame = (*frame)[:0]
		framePool.Put(frame)
	}
}
