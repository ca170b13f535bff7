package segio

import (
	"fmt"

	"xsp/internal/trace"
)

// The span block layout lives in package trace (AppendSpanBlock /
// DecodeSpanBlock): segment files, WAL records, and the HTTP binary wire
// format all share one codec, so a span spilled to disk and a span posted
// to /api/spans are the same bytes. This file adapts that codec to
// segio's error domain — every decode failure here must surface as
// ErrCorrupt so recovery quarantines instead of poisoning. The snapshot's
// own trailing fields are read through trace's bounds-checked BlockReader,
// their errors wrapped the same way.

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
