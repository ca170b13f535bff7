package trace

import (
	"math"
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
// holds no further use for it, and with it the span's Tags and Metrics
// arrays. The wire decoders' stores (DecodeBinary, DecodeJSON) recycle: they
// take freed slots before they carve a chunk, and DecodeBinary refills freed
// tag and metric arrays before it carves entries.
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
// slice past maxFreeBatches. A span's Tags and Metrics go back as pieces,
// one bucket per length up to maxPieceLen, 16 Ki entries of both kinds in
// all (~0.5 MiB): what a few folds of a thousand spans free. A piece on the
// list keeps its whole entry arena alive, so the bound is kept tight: at
// 32 Ki, durable_mixed_rw peaked ~4 % over no list at all (BENCH_51.json).
const (
	maxFreeSpans   = 64 << 10
	maxFreeBatches = 16
	maxPieceLen    = 16
	maxFreeEntries = 16 << 10
)

// freeSpans is the process's one free list of recycled span slots, batch
// slices and entry pieces, shared by every tenant's folds and feeds and every
// recycling decode.
var freeSpans struct {
	sync.Mutex
	slots   []*Span
	batches [][]*Span // empty, with their capacity
	tags    [maxPieceLen + 1][][]Tag
	mets    [maxPieceLen + 1][][]Metric
	entries int // in tags and mets
}

// poisonSpan is what a freed slot holds under the race detector until it is
// taken again, so a holder that outlives its span reads nonsense loudly; a
// freed piece holds poisonTag or poisonMetric in every entry.
var (
	poisonSpan = Span{ID: 0xdeadbeefdeadbeef, ParentID: 0xdeadbeefdeadbeef, CorrelationID: 0xdeadbeefdeadbeef,
		Level: -1 << 30, Kind: -1, Name: "<recycled span>", Source: "<recycled span>", Begin: -1 << 62, End: -1 << 61}
	poisonTag    = Tag{"<recycled tag>", "<recycled tag>"}
	poisonMetric = Metric{"<recycled metric>", math.NaN()}
)

// RecycleSpans gives the slots of spans back to the free list, with their
// Tags and Metrics arrays, for the next recycling decode to refill. The
// caller must be their one owner and keep none of them, nor any span's
// entries: a span fed owned to a core.StreamCorrelator is recycled by the
// fold that encodes it. Each slot and entry is cleared (poisoned under the
// race detector) whether or not the list has room for it.
func RecycleSpans(spans []*Span) {
	freeSpans.Lock()
	for _, s := range spans {
		putPiece(&freeSpans.tags, s.Tags, poisonTag)
		putPiece(&freeSpans.mets, s.Metrics, poisonMetric)
		if raceEnabled {
			*s = poisonSpan
		} else {
			*s = Span{}
		}
	}
	k := min(len(spans), maxFreeSpans-len(freeSpans.slots))
	freeSpans.slots = append(freeSpans.slots, spans[:k]...)
	freeSpans.Unlock()
}

// putPiece clears (poisons) the entries of p and puts p in its length's
// bucket, if there is one and the entry bound has room. freeSpans is locked.
func putPiece[T any](pieces *[maxPieceLen + 1][][]T, p []T, poison T) {
	if raceEnabled {
		for i := range p {
			p[i] = poison
		}
	} else {
		clear(p)
	}
	if n := len(p); n > 0 && n <= maxPieceLen && freeSpans.entries+n <= maxFreeEntries {
		pieces[n] = append(pieces[n], p[:n:n])
		freeSpans.entries += n
	}
}

// takePieces hands each of spans, a recycling decode's new slots for blk's
// records in key order (spans[i] is record keys[i].rec's), the free pieces
// as long as its record's tag count and metric count, in one locked pass,
// and returns the tag and metric entries it found no piece for: what the
// decode carves.
func takePieces(blk *SpanBlock, spans []*Span, keys []recordKey) (tags, mets int) {
	freeSpans.Lock()
	for i, s := range spans {
		t, m := blk.entryCounts(int(keys[i].rec))
		s.Tags, tags = takePiece(&freeSpans.tags, t, tags)
		s.Metrics, mets = takePiece(&freeSpans.mets, m, mets)
	}
	freeSpans.Unlock()
	return tags, mets
}

// takePiece returns a free piece of n entries and short, or nil and short
// plus n when its bucket is empty (bucket 0 always is) or n is none of the
// buckets' lengths. freeSpans is locked.
func takePiece[T any](pieces *[maxPieceLen + 1][][]T, n, short int) ([]T, int) {
	if n > maxPieceLen || len(pieces[n]) == 0 {
		return nil, short + n
	}
	k := len(pieces[n]) - 1
	p := pieces[n][k]
	pieces[n][k] = nil
	pieces[n] = pieces[n][:k]
	freeSpans.entries -= n
	return p, short
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
