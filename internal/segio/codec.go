package segio

import (
	"encoding/binary"
	"fmt"

	"xsp/internal/trace"
)

// The span block layout lives in package trace (AppendSpanBlock /
// DecodeSpanBlock): segment files, WAL records, and the HTTP binary wire
// format all share one codec, so a span spilled to disk and a span posted
// to /api/spans are the same bytes. This file adapts that codec to
// segio's error domain — every decode failure here must surface as
// ErrCorrupt so recovery quarantines instead of poisoning — and keeps the
// small bounds-checked reader segio uses for its own trailing snapshot
// fields.

// spanEncSize presizes encode buffers: the fixed per-span record plus a
// typical span's share of the entry tables and blob. A low guess costs one
// regrow of the buffer, nothing else.
const spanEncSize = trace.SpanRecordSize + 48

// decodeSpanBlock decodes one span block from b, returning the spans,
// their owned bitset, and the remaining bytes after the block. Errors
// wrap ErrCorrupt.
func decodeSpanBlock(b []byte) (spans []*trace.Span, owned []uint64, rest []byte, err error) {
	spans, owned, rest, err = trace.DecodeSpanBlock(b)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return spans, owned, rest, nil
}

// blockReader walks segio's own trailing binary fields (snapshot corr
// table, floor, dedup ids) with running bounds checks; the first
// violation latches ErrCorrupt and zeroes every later read.
type blockReader struct {
	b   []byte
	off int
	err error
}

func (r *blockReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated record at offset %d", ErrCorrupt, r.off)
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
