package trace

import (
	"unsafe"

	"xsp/internal/vclock"
)

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

// SpanStore is an arena-backed span container: the hot ingest
// representation underneath Memory shards and the binary decode path.
//
// It has two parts:
//
//   - An arena of fixed-capacity []Span chunks. Alloc hands out stable
//     pointers into the current chunk, so decoding a batch costs one
//     allocation per storeChunkSpans spans instead of one per span, while every
//     existing consumer keeps working on ordinary *Span values.
//   - A dense pointer view (Spans), the unit shared with Trace snapshots.
//     The prefix of the view is immutable — appends extend it, Reset
//     replaces the header — so readers can scan a captured header without
//     holding the writer's lock.
//
// Aliasing rule: the Span structs are authoritative for every field.
// core.Correlate writes ParentID through the shared pointers and that
// mutation must stay visible to later Trace calls; the store copies
// nothing but the last append's canonical-order key, which is immutable
// after publish. See the package comment.
//
// The zero value is an empty store ready for use. A SpanStore is not safe
// for concurrent use; Memory wraps one per shard under the shard lock.
type SpanStore struct {
	chunks [][]Span // arena; each chunk's backing array never reallocates
	ptrs   []*Span  // dense view, in append order

	// The previous append's canonical-order key, and the inverted
	// canonical-order flag it maintains in O(1) per append without chasing
	// the previous pointer, so snapshotting skips the O(n) per-shard
	// sortedness scan. Inverted so the zero value (empty store) reads as
	// sorted.
	lastBegin vclock.Time
	lastLevel Level
	lastID    uint64
	unsorted  bool
}

// Len returns the number of spans in the store.
func (st *SpanStore) Len() int { return len(st.ptrs) }

// Alloc returns a pointer to a new zero span carved from the arena. The
// pointer is stable for the life of the store's chunks (a Reset abandons
// the chunks but previously returned pointers stay valid — snapshots may
// still hold them). The span is not yet part of the store's view; fill it
// in and pass it to Add.
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

// Add appends a span to the store's view. The span may live anywhere — the
// arena (Alloc) or an ordinary heap allocation from a publisher — the store
// does not care; only decode paths use the arena.
func (st *SpanStore) Add(s *Span) {
	pb, pl, pi := st.lastBegin, st.lastLevel, st.lastID
	if len(st.ptrs) > 0 && (s.Begin < pb || (s.Begin == pb && (s.Level < pl || (s.Level == pl && s.ID < pi)))) {
		st.unsorted = true
	}
	st.lastBegin, st.lastLevel, st.lastID = s.Begin, s.Level, s.ID
	st.ptrs = append(st.ptrs, s)
}

// AddAll appends a batch of spans.
func (st *SpanStore) AddAll(spans []*Span) {
	for _, s := range spans {
		st.Add(s)
	}
}

// Spans returns the dense pointer view in append order. The returned
// header is shared with the store: its current prefix is immutable (the
// store only appends or replaces the whole header on Reset), so a caller
// that captured the header may scan it concurrently with later appends.
func (st *SpanStore) Spans() []*Span { return st.ptrs }

// Sorted reports whether the view is in canonical timeline order
// (CanonicalLess: begin, level, ID), maintained incrementally on append.
func (st *SpanStore) Sorted() bool { return !st.unsorted }

// Reset empties the store by replacing, not truncating: outstanding
// snapshot headers and arena pointers remain valid, the store simply
// stops referencing them.
func (st *SpanStore) Reset() { *st = SpanStore{} }

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
