package trace

import (
	"sync"
	"unsafe"
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

// SpanStore is the span arena under the binary decode path: fixed-capacity
// []Span chunks from which Alloc hands out stable pointers, so decoding a
// batch costs one allocation per storeChunkSpans spans instead of one per
// span, while every consumer keeps working on ordinary *Span values.
//
// A pointer is stable until its span is recycled: never, unless the span
// was handed to a consumer that owns it (core.StreamCorrelator.FeedOwned),
// which gives the slot back to the process's free list (RecycleSpans) once it
// holds no further use for it. The wire decoders' stores (DecodeBinary,
// DecodeJSON) recycle: they take freed slots before they carve a chunk.
//
// The zero value is an empty arena ready for use. A SpanStore is not safe
// for concurrent use.
type SpanStore struct {
	chunks  [][]Span // each chunk's backing array never reallocates
	recycle bool     // allocBatch takes freed slices and slots first
}

// Alloc returns a pointer to a new zero span carved from the arena.
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

// allocBatch returns n new zero spans: a recycling store's come in a freed
// batch slice and take freed slots first, and Alloc carves the rest.
func (st *SpanStore) allocBatch(n int) []*Span {
	var batch []*Span
	k := 0
	if st.recycle {
		batch, k = takeFree(n)
	} else {
		batch = make([]*Span, n)
	}
	for i := k; i < n; i++ {
		batch[i] = st.Alloc()
	}
	return batch
}

// maxFreeSpans bounds the free list: 64 Ki slots, ~8.5 MiB of spans, which
// is what a handful of folds release and the next batches' decodes take.
// A slot freed past it is left to the garbage collector, and so is a batch
// slice past maxFreeBatches.
const (
	maxFreeSpans   = 64 << 10
	maxFreeBatches = 16
)

// freeSpans is the process's one free list of recycled span slots and batch
// slices, shared by every tenant's folds and feeds and every recycling decode.
var freeSpans struct {
	sync.Mutex
	slots   []*Span
	batches [][]*Span // empty, with their capacity
}

// poisonSpan is what a freed slot holds under the race detector until it is
// taken again, so a holder that outlives its span reads nonsense loudly.
var poisonSpan = Span{ID: 0xdeadbeefdeadbeef, ParentID: 0xdeadbeefdeadbeef, CorrelationID: 0xdeadbeefdeadbeef,
	Level: -1 << 30, Kind: -1, Name: "<recycled span>", Source: "<recycled span>", Begin: -1 << 62, End: -1 << 61}

// RecycleSpans gives the slots of spans back to the free list, for the next
// recycling decode to refill. The caller must be their one owner and keep
// none of them: a span fed owned to a core.StreamCorrelator is recycled by
// the fold that encodes it. Each slot is cleared (poisoned under the race
// detector) whether or not the list has room for it.
func RecycleSpans(spans []*Span) {
	for _, s := range spans {
		if raceEnabled {
			*s = poisonSpan
		} else {
			*s = Span{}
		}
	}
	freeSpans.Lock()
	k := min(len(spans), maxFreeSpans-len(freeSpans.slots))
	freeSpans.slots = append(freeSpans.slots, spans[:k]...)
	freeSpans.Unlock()
}

// RecycleBatch gives the slice of an owned batch back, once its spans are
// held elsewhere: the next recycling decode of a batch no larger holds its
// spans in it. A core.StreamCorrelator recycles what FeedOwned was handed.
func RecycleBatch(batch []*Span) {
	clear(batch)
	freeSpans.Lock()
	if len(freeSpans.batches) < maxFreeBatches {
		freeSpans.batches = append(freeSpans.batches, batch[:0])
	}
	freeSpans.Unlock()
}

// takeFree returns a batch slice of n spans — the last one freed, when it is
// large enough — whose first k are slots off the free list, each a zero span,
// and the rest nil.
func takeFree(n int) (batch []*Span, k int) {
	freeSpans.Lock()
	if b := len(freeSpans.batches) - 1; b >= 0 && cap(freeSpans.batches[b]) >= n {
		batch = freeSpans.batches[b][:n]
		freeSpans.batches[b] = nil
		freeSpans.batches = freeSpans.batches[:b]
	} else {
		batch = make([]*Span, n)
	}
	k = min(n, len(freeSpans.slots))
	rest := len(freeSpans.slots) - k
	copy(batch, freeSpans.slots[rest:])
	clear(freeSpans.slots[rest:])
	freeSpans.slots = freeSpans.slots[:rest]
	freeSpans.Unlock()
	if raceEnabled {
		for _, s := range batch[:k] {
			*s = Span{}
		}
	}
	return batch, k
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
