package trace

import "unsafe"

// storeChunkSpans is the arena chunk size. Chunks are fixed-capacity so a
// span's address never changes after Alloc: growing the arena appends a
// new chunk instead of reallocating, which is what makes handing out
// stable *Span pointers safe. 240 spans of 136 bytes are 32 640 bytes: the
// most that stays within Go's largest small-object size class (32 KiB), past
// which every chunk is a large-object allocation of its own, cleared in
// chunks — one allocation amortized over 240 spans instead of one per span.
const storeChunkSpans = 240

// A chunk must not outgrow the size class the count was chosen for.
const _ = uint(32<<10 - unsafe.Sizeof(Span{})*storeChunkSpans)

// SpanStore is the span arena under the binary decode path: fixed-capacity
// []Span chunks from which Alloc hands out stable pointers, so decoding a
// batch costs one allocation per storeChunkSpans spans instead of one per
// span, while every consumer keeps working on ordinary *Span values.
//
// The zero value is an empty arena ready for use. A SpanStore is not safe
// for concurrent use.
type SpanStore struct {
	chunks [][]Span // each chunk's backing array never reallocates
}

// Alloc returns a pointer to a new zero span carved from the arena. The
// pointer is stable for the life of the arena's chunks.
func (st *SpanStore) Alloc() *Span {
	n := len(st.chunks)
	if n == 0 || len(st.chunks[n-1]) == cap(st.chunks[n-1]) {
		st.chunks = append(st.chunks, make([]Span, 0, storeChunkSpans))
		n++
	}
	c := &st.chunks[n-1]
	*c = (*c)[:len(*c)+1] // zero as make left it: a chunk is never truncated and refilled
	return &(*c)[len(*c)-1]
}

// Interner deduplicates strings. Decoded span batches repeat a handful of
// names and sources thousands of times; interning keeps one canonical
// copy per distinct string so the retained trace does not hold a
// per-span substring (or per-span allocation, on paths that would
// otherwise copy). The zero value is ready to use; an Interner is not
// safe for concurrent use.
type Interner struct {
	syms map[string]string
}

// Intern returns the canonical copy of s, registering it on first sight.
func (in *Interner) Intern(s string) string {
	if s == "" {
		return ""
	}
	if c, ok := in.syms[s]; ok {
		return c
	}
	if in.syms == nil {
		in.syms = make(map[string]string)
	}
	in.syms[s] = s
	return s
}
