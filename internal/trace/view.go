package trace

import (
	"io"
	"net/http"
	"unsafe"
)

// A View is one read of a span store, pinned for as long as it is in use:
// its spans in canonical order, handed out one at a time as often as a
// reader asks. A span the store holds encoded comes as its record in a
// validated span block, which a binary reply copies out with its offsets
// rebased and never decodes; any other comes as a Span. So a reply streams
// from what the store holds (WriteBinary), and a reader that wants Spans
// decodes them one at a time (Decode, Trace).
type View struct {
	Tenant string // the key a reply names; the zero value is tenantless

	// Walk hands yield the view's spans in canonical order, the same ones
	// on every call, and stops at the first false yield returns: a span held
	// encoded as record i of blk, any other as s (blk nil). What a span
	// reads as may not change while the View is in use, but a block is good
	// only for the yield that hands it out: a store that reads its records
	// from a file a window at a time reuses a window's bytes for the next,
	// behind a fresh *SpanBlock. A nil Walk is the empty view.
	Walk func(yield func(blk *SpanBlock, i int, s *Span) bool)

	// Raw reads an owned record (a ParentID a correlator derived) with
	// ParentID zero. A span handed as s is read as it is.
	Raw bool

	// Err, when set, reports why the last walk ended before the view did: a
	// read of what the store holds failed. A nil Err never fails.
	Err func() error

	// Release, when set, lets go of what the view pins — a file a
	// compaction has since deleted stays readable until then. Close calls it.
	Release func()
}

// walk walks the view and returns the error that cut the walk short.
func (v View) walk(yield func(blk *SpanBlock, i int, s *Span) bool) error {
	if v.Walk == nil {
		return nil
	}
	v.Walk(yield)
	if v.Err != nil {
		return v.Err()
	}
	return nil
}

// Close releases the view: it must not be walked after.
func (v View) Close() {
	if v.Release != nil {
		v.Release()
	}
}

// viewChunk is the most bytes WriteBinary holds before writing them out:
// ~64 KB of records, whatever the view's size. A variable so that tests can
// force writes mid-run.
var viewChunk = 64 << 10 / SpanRecordSize * SpanRecordSize

// WriteBinary writes the view to w as one framed binary batch: the bytes
// AppendBinaryFrameTenant writes for the spans Decode hands out, without
// decoding a record or holding the frame. It walks the view twice, the
// frame's length coming before its records (see streamBlock): a record is
// gathered as StreamSpanBlock gathers it, with its owned flag cleared; a
// span is encoded as AppendSpanBlock encodes it. What stays resident is the
// view's strings and table entries, not its records.
// WriteBinary returns the first write or read error, and writes nothing
// after it; a read error in the first pass writes nothing at all.
func (v View) WriteBinary(w io.Writer) error {
	return streamBlock(w, v.walk, v.record, func(size int) []byte {
		return appendFrameHeader(nil, v.Tenant, uint32(size))
	})
}

// record fills rec from one span of the view: a record gathered, its owned
// flag cleared (and, Raw, its ParentID with it), or a span put, owned by
// nobody.
func (v View) record(e *blockScratch, rec []byte, blk *SpanBlock, i int, s *Span) {
	if blk == nil {
		e.put(rec, s, false)
		return
	}
	e.gather(rec, blk, i)
	if rec[45]&flagOwned != 0 {
		rec[45] &^= flagOwned
		if v.Raw {
			clear(rec[8:16])
		}
	}
}

// Decode hands visit the view's spans in order, as Spans: a record decoded
// into a fresh span (ParentID as recorded, or zero when Raw and the record
// is owned), any other span as it is. The fresh spans share their block's
// blob string and entry arena, and are visit's to keep: Decode keeps none
// of them, so a visitor that lets go of each decodes a view in bounded
// memory. Blocks that share a blob — the windows of one file — share one
// decoder, so the blob is copied into a string once. It returns the error
// that cut the walk short.
func (v View) Decode(visit func(s *Span)) error {
	var st SpanStore
	decs := make(map[*byte]*SpanDecoder)
	var last *SpanBlock
	var d *SpanDecoder
	return v.walk(func(blk *SpanBlock, i int, s *Span) bool {
		if blk != nil {
			if blk != last {
				key := unsafe.SliceData(blk.blob)
				if d = decs[key]; d == nil {
					dec := blk.Decoder()
					d = &dec
					decs[key] = d
				}
				d.blk, last = *blk, blk
			}
			if n := len(st.chunks); n > 1 { // the filled chunks' spans are visit's: let go of them
				c := st.chunks[n-1]
				clear(st.chunks)
				st.chunks = append(st.chunks[:0], c)
			}
			if s = d.Span(&st, i); v.Raw && blk.Owned(i) {
				s.ParentID = 0
			}
		}
		visit(s)
		return true
	})
}

// Trace returns the view decoded: a Trace of its spans under its tenant —
// those read before an error cut the walk short (see Err).
func (v View) Trace() *Trace {
	t := &Trace{Tenant: v.Tenant}
	v.Decode(func(s *Span) { t.Spans = append(t.Spans, s) })
	return t
}

// WriteView answers a GET with v in the encoding the request's Accept
// header negotiates (AcceptsBinary: binary, streamed, when listed; JSON
// otherwise) — the one reply every trace-serving endpoint gives,
// /api/trace here and a profiling server's /api/correlated alike. A reply
// that fails once its body has begun ends there: the status is out, and an
// error text would only be appended to the partial body.
func WriteView(w http.ResponseWriter, r *http.Request, v View) {
	sw := &sentWriter{w: w}
	var err error
	if AcceptsBinary(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", ContentTypeBinary)
		err = v.WriteBinary(sw)
	} else {
		w.Header().Set("Content-Type", ContentTypeJSON)
		t := &Trace{Tenant: v.Tenant}
		if err = v.Decode(func(s *Span) { t.Spans = append(t.Spans, s) }); err == nil {
			err = t.EncodeJSON(sw)
		}
	}
	if err != nil && !sw.sent {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// sentWriter notes whether anything was written through it.
type sentWriter struct {
	w    io.Writer
	sent bool
}

func (s *sentWriter) Write(p []byte) (int, error) {
	s.sent = true
	return s.w.Write(p)
}
