package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"xsp/internal/vclock"
)

// This file is the binary span codec — one layout shared by every binary
// consumer in the tree: the HTTP wire format (EncodeBinary/DecodeBinary,
// content type ContentTypeBinary), segio's segment files and WAL records
// (which wrap AppendSpanBlock/DecodeSpanBlock), and anything else that
// wants to persist spans compactly.
//
// The span block is: a count, then fixed 80-byte span records, then the
// tag and metric entry tables, then a single shared string blob. Fixed
// records up front keep the format mmap-friendly — a reader can index
// span i at a constant offset — and the decoder materializes the blob as
// one Go string, so every name, source, tag key, and tag value is a
// zero-copy substring of a single allocation rather than a per-field
// copy. Decoded Span structs themselves come out of a SpanStore arena
// (one allocation per 256 spans), so decoding a batch costs O(1)
// allocations plus the rare tag/metric map, not one per span.
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
}

// maxPooledScratch is the most buffer capacity a scratch may take back to
// the pool: room for the tables of a ~200k-span segment.
const maxPooledScratch = 8 << 20

var blockScratchPool = sync.Pool{New: func() any { return &blockScratch{pos: make(map[string]uint32)} }}

func (e *blockScratch) intern(s string) (off, n uint32) {
	if off, ok := e.pos[s]; ok {
		return off, uint32(len(s))
	}
	off = uint32(len(e.blob))
	e.pos[s] = off
	e.blob = append(e.blob, s...)
	return off, uint32(len(s))
}

// put fills rec, one span's record, in place. rec may be dirty spare
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
	le.PutUint32(rec[64:], uint32(len(e.tags)/16))
	le.PutUint32(rec[68:], uint32(len(s.Tags)))
	for k, v := range s.Tags {
		off, n = e.intern(k)
		e.tags = le.AppendUint32(le.AppendUint32(e.tags, off), n)
		off, n = e.intern(v)
		e.tags = le.AppendUint32(le.AppendUint32(e.tags, off), n)
	}
	le.PutUint32(rec[72:], uint32(len(e.mets)/16))
	le.PutUint32(rec[76:], uint32(len(s.Metrics)))
	for k, v := range s.Metrics {
		off, n = e.intern(k)
		e.mets = le.AppendUint32(le.AppendUint32(e.mets, off), n)
		e.mets = le.AppendUint64(e.mets, math.Float64bits(v))
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
	buf = slices.Grow(buf, 12+len(e.tags)+len(e.mets)+len(e.blob))
	buf = append(le.AppendUint32(buf, uint32(len(e.tags)/16)), e.tags...)
	buf = append(le.AppendUint32(buf, uint32(len(e.mets)/16)), e.mets...)
	buf = append(le.AppendUint32(buf, uint32(len(e.blob))), e.blob...)
	// A scratch in steady use never leaves the pool: one a whole-history
	// snapshot grew is dropped rather than kept alive by 1k-span records.
	if cap(e.tags)+cap(e.mets)+cap(e.blob) <= maxPooledScratch {
		e.tags, e.mets, e.blob = e.tags[:0], e.mets[:0], e.blob[:0]
		clear(e.pos)
		blockScratchPool.Put(e)
	}
	return buf
}

// blockReader walks a span block with running bounds checks; the first
// violation latches an error and zeroes every later read, so a truncated
// or bit-flipped block surfaces as ErrBadFrame instead of a panic.
type blockReader struct {
	b   []byte
	off int
	err error
}

func (r *blockReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated span block at offset %d", ErrBadFrame, r.off)
	}
}

func (r *blockReader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *blockReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// DecodeSpanBlock decodes one span block from b, returning the spans,
// their owned bitset, and the remaining bytes after the block. Spans are
// carved from a fresh arena. Errors wrap ErrBadFrame.
func DecodeSpanBlock(b []byte) (spans []*Span, owned []uint64, rest []byte, err error) {
	var st SpanStore
	return DecodeSpanBlockInto(&st, b)
}

// DecodeSpanBlockInto is DecodeSpanBlock allocating the decoded spans
// from the given store's arena, so a caller that decodes many blocks
// (segment recovery, a busy ingest endpoint) shares chunks instead of
// allocating per span. The decoded spans are returned in record order and
// are not added to the store's view.
func DecodeSpanBlockInto(st *SpanStore, b []byte) (spans []*Span, owned []uint64, rest []byte, err error) {
	r := &blockReader{b: b}
	le := binary.LittleEndian
	count := int(r.u32())
	recs := r.bytes(count * SpanRecordSize)
	tagN := int(r.u32())
	tags := r.bytes(tagN * 16)
	metN := int(r.u32())
	mets := r.bytes(metN * 16)
	blobLen := int(r.u32())
	blobBytes := r.bytes(blobLen)
	if r.err != nil {
		return nil, nil, nil, r.err
	}
	blob := string(blobBytes)
	str := func(off, n uint32) (string, bool) {
		if int64(off)+int64(n) > int64(len(blob)) {
			return "", false
		}
		return blob[off : off+n], true
	}

	spans = make([]*Span, count)
	owned = make([]uint64, (count+63)/64)
	for i := 0; i < count; i++ {
		rec := recs[i*SpanRecordSize:]
		s := st.Alloc()
		s.ID = le.Uint64(rec[0:])
		s.ParentID = le.Uint64(rec[8:])
		s.CorrelationID = le.Uint64(rec[16:])
		s.Begin = vclock.Time(le.Uint64(rec[24:]))
		s.End = vclock.Time(le.Uint64(rec[32:]))
		s.Level = Level(int32(le.Uint32(rec[40:])))
		s.Kind = Kind(rec[44])
		if s.Kind != KindSync && s.Kind != KindLaunch && s.Kind != KindExec {
			return nil, nil, nil, fmt.Errorf("%w: span %d has unknown kind %d", ErrBadFrame, i, rec[44])
		}
		if rec[45]&flagOwned != 0 {
			owned[i/64] |= 1 << (i % 64)
		}
		var ok bool
		if s.Name, ok = str(le.Uint32(rec[48:]), le.Uint32(rec[52:])); !ok {
			return nil, nil, nil, fmt.Errorf("%w: span %d name out of blob bounds", ErrBadFrame, i)
		}
		if s.Source, ok = str(le.Uint32(rec[56:]), le.Uint32(rec[60:])); !ok {
			return nil, nil, nil, fmt.Errorf("%w: span %d source out of blob bounds", ErrBadFrame, i)
		}
		tOff, tCnt := int(le.Uint32(rec[64:])), int(le.Uint32(rec[68:]))
		if tCnt > 0 {
			if tOff+tCnt > tagN {
				return nil, nil, nil, fmt.Errorf("%w: span %d tag table out of bounds", ErrBadFrame, i)
			}
			s.Tags = make(map[string]string, tCnt)
			for j := tOff; j < tOff+tCnt; j++ {
				ent := tags[j*16:]
				k, ok1 := str(le.Uint32(ent[0:]), le.Uint32(ent[4:]))
				v, ok2 := str(le.Uint32(ent[8:]), le.Uint32(ent[12:]))
				if !ok1 || !ok2 {
					return nil, nil, nil, fmt.Errorf("%w: span %d tag out of blob bounds", ErrBadFrame, i)
				}
				s.Tags[k] = v
			}
		}
		mOff, mCnt := int(le.Uint32(rec[72:])), int(le.Uint32(rec[76:]))
		if mCnt > 0 {
			if mOff+mCnt > metN {
				return nil, nil, nil, fmt.Errorf("%w: span %d metric table out of bounds", ErrBadFrame, i)
			}
			s.Metrics = make(map[string]float64, mCnt)
			for j := mOff; j < mOff+mCnt; j++ {
				ent := mets[j*16:]
				k, ok := str(le.Uint32(ent[0:]), le.Uint32(ent[4:]))
				if !ok {
					return nil, nil, nil, fmt.Errorf("%w: span %d metric key out of blob bounds", ErrBadFrame, i)
				}
				s.Metrics[k] = math.Float64frombits(le.Uint64(ent[8:]))
			}
		}
		spans[i] = s
	}
	return spans, owned, r.b[r.off:], nil
}

// IsBinaryFrame reports whether prefix starts a framed binary span batch
// — at least frame-header length and carrying the magic. Tools reading a
// trace file of unknown format peek this before choosing DecodeBinary or
// DecodeJSON.
func IsBinaryFrame(prefix []byte) bool {
	return len(prefix) >= frameHeaderSize && string(prefix[:len(wireMagic)]) == wireMagic
}

// AppendBinaryFrame encodes spans as one framed binary batch (header +
// span block) onto buf and returns the extended buffer. The frame is what
// EncodeBinary writes and DecodeBinary reads. Frames written here carry
// no tenant key (format version 1, byte-identical to pre-tenant
// encoders); AppendBinaryFrameTenant stamps one.
func AppendBinaryFrame(buf []byte, spans []*Span) []byte {
	return AppendBinaryFrameTenant(buf, "", spans)
}

// AppendBinaryFrameTenant is AppendBinaryFrame with a tenant key in the
// frame header. A zero tenant (empty or DefaultTenant) emits a version-1
// frame — old decoders read it, and a tenantless round trip stays
// byte-exact with the pre-tenant format; any other key emits version 2.
// The key must satisfy ValidateTenant (enforced at every ingress); an
// invalid key here is a programming error and panics.
func AppendBinaryFrameTenant(buf []byte, tenant string, spans []*Span) []byte {
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
	lenAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // payload length, patched below
	payloadAt := len(buf)
	buf = AppendSpanBlock(buf, spans, nil)
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-payloadAt))
	return buf
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
// (or AppendBinaryFrame) and returns the decoded trace in canonical begin
// order, exactly like DecodeJSON. The spans are decoded straight into a
// fresh arena: one allocation per 256 spans, with every string a
// zero-copy substring of the frame's shared blob. Any framing or payload
// problem — bad magic, unknown version, truncated body, corrupt block,
// trailing garbage — returns an error wrapping ErrBadFrame and no spans.
func DecodeBinary(r io.Reader) (*Trace, error) {
	var hdr [len(wireMagic) + 1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short frame header: %v", ErrBadFrame, err)
	}
	if string(hdr[:len(wireMagic)]) != wireMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFrame, hdr[:len(wireMagic)])
	}
	var tenant string
	switch v := hdr[len(wireMagic)]; v {
	case wireVersion:
	case wireVersionTenant:
		var tl [1]byte
		if _, err := io.ReadFull(r, tl[:]); err != nil {
			return nil, fmt.Errorf("%w: short tenant length: %v", ErrBadFrame, err)
		}
		key := make([]byte, tl[0])
		if _, err := io.ReadFull(r, key); err != nil {
			return nil, fmt.Errorf("%w: short tenant key: %v", ErrBadFrame, err)
		}
		tenant = string(key)
		if err := ValidateTenant(tenant); err != nil || tenant == "" {
			return nil, fmt.Errorf("%w: bad tenant key %q", ErrBadFrame, tenant)
		}
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, v)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: short payload length: %v", ErrBadFrame, err)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > maxFramePayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrBadFrame, n)
	}
	// The declared length is a claim: allocate as the bytes arrive, in
	// doubling steps past the first MiB. Up to there the buffer is pooled:
	// nothing decoded aliases it (the blob is copied into one string, records
	// and entry tables are read by value), so it is garbage on return.
	bp := framePool.Get().(*[]byte)
	first := int(min(n, maxPooledFrame))
	payload := *bp
	if cap(payload) < first {
		payload = make([]byte, first)
	}
	payload = payload[:first]
	defer func() {
		if cap(payload) <= maxPooledFrame {
			*bp = payload[:0]
			framePool.Put(bp)
		}
	}()
	for read := 0; ; {
		if _, err := io.ReadFull(r, payload[read:]); err != nil {
			return nil, fmt.Errorf("%w: short payload: %v", ErrBadFrame, err)
		}
		if read = len(payload); read == int(n) {
			break
		}
		payload = append(payload, make([]byte, min(read, int(n)-read))...)
	}
	var st SpanStore
	spans, _, rest, err := DecodeSpanBlockInto(&st, payload)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after span block", ErrBadFrame, len(rest))
	}
	t := &Trace{Spans: spans, Tenant: tenant}
	t.SortByBegin()
	return t, nil
}
