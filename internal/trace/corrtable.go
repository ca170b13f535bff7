package trace

import "math/bits"

// CorrTable maps correlation ids (Span.CorrelationID) to values. CUPTI and
// NewSpanID hand ids out from per-process counters, so the ids a stream holds
// at once are a window of a dense — or, interleaved with span ids, strided —
// range, and the table is a direct-mapped window over it: a power-of-two slot
// array of {id, value} indexed by id & (len-1), with id 0, which already means
// "no correlation", marking an empty slot. A lookup, insert or delete on a
// window that fits costs one slot and no hash.
//
// An id whose slot another id holds spills to a map while live entries fill
// less than a quarter of the slots; at or above a quarter, the collision
// doubles the array instead. The array halves when live entries drop below a
// sixteenth of it, so a burst does not pin its peak: a table never holds more
// than max(64, 16 × live) slots. A slot is 8 + sizeof(V) bytes. A window of n
// dense or odd-strided ids fits, nothing spilled, in the first power of two
// above n — one to two slots a live entry, no more than a hash map's share —
// while ids with no such structure settle at four to eight slots an entry,
// under a quarter of them spilled. The zero value is an empty table; a
// CorrTable is not safe for concurrent use.
type CorrTable[V any] struct {
	slots []corrSlot[V]
	n     int          // live entries, slotted and spilled
	spill map[uint64]V // ids whose slot another id holds
}

type corrSlot[V any] struct {
	id uint64 // 0: empty
	v  V
}

// corrTableMin is the smallest slot array: the first Put allocates it, and
// shrinking stops there.
const corrTableMin = 64

// Len returns the number of live entries.
func (t *CorrTable[V]) Len() int { return t.n }

// Get returns the value stored under id and whether there is one.
func (t *CorrTable[V]) Get(id uint64) (v V, ok bool) {
	if s := t.find(id); s != nil {
		return s.v, true
	}
	if len(t.spill) > 0 {
		v, ok = t.spill[id]
	}
	return v, ok
}

// Put stores v under id, replacing any value id held, and reports whether it
// stored: id 0 is refused.
func (t *CorrTable[V]) Put(id uint64, v V) bool {
	switch s := t.find(id); {
	case id == 0:
		return false
	case s != nil:
		s.v = v
		return true
	case t.spilled(id):
		t.spill[id] = v
		return true
	}
	if len(t.slots) == 0 {
		t.slots = make([]corrSlot[V], corrTableMin)
	}
	for !t.place(id, v, 4*t.n < len(t.slots)) {
		t.resize(2 * len(t.slots))
	}
	t.n++
	return true
}

// Grow sizes the slot array for n entries — the first power of two at or
// above n, which holds a window of n dense ids without a collision — so a
// caller that knows its count fills the table without resizing on the way.
func (t *CorrTable[V]) Grow(n int) {
	if size := 1 << bits.Len(uint(max(n, corrTableMin)-1)); size > len(t.slots) {
		t.resize(size)
	}
}

// Delete removes id's entry, if it has one.
func (t *CorrTable[V]) Delete(id uint64) {
	if s := t.find(id); s != nil {
		*s = corrSlot[V]{}
	} else if t.spilled(id) {
		delete(t.spill, id)
	} else {
		return
	}
	t.n--
	if len(t.slots) > corrTableMin && 16*t.n < len(t.slots) {
		t.resize(len(t.slots) / 2)
	}
}

// Each calls fn for every entry, in no particular order.
func (t *CorrTable[V]) Each(fn func(id uint64, v V)) {
	for _, s := range t.slots {
		if s.id != 0 {
			fn(s.id, s.v)
		}
	}
	for id, v := range t.spill {
		fn(id, v)
	}
}

// find returns the slot id holds, or nil when it holds none.
func (t *CorrTable[V]) find(id uint64) *corrSlot[V] {
	if id != 0 && len(t.slots) > 0 {
		if s := &t.slots[id&uint64(len(t.slots)-1)]; s.id == id {
			return s
		}
	}
	return nil
}

// spilled reports whether id's entry is in the spill map, which it probes
// only when something has spilled.
func (t *CorrTable[V]) spilled(id uint64) (ok bool) {
	if len(t.spill) > 0 {
		_, ok = t.spill[id]
	}
	return ok
}

// place stores a new entry in its slot or, when another id holds the slot
// and spill is set, in the spill map; it reports whether it stored.
func (t *CorrTable[V]) place(id uint64, v V, spill bool) bool {
	switch s := &t.slots[id&uint64(len(t.slots)-1)]; {
	case s.id == 0:
		*s = corrSlot[V]{id: id, v: v}
	case !spill:
		return false
	case t.spill == nil:
		t.spill = map[uint64]V{id: v}
	default:
		t.spill[id] = v
	}
	return true
}

// resize re-places every entry into a slot array of size slots: a slotted
// entry whose new slot is taken spills, whatever the fill, and a spilled one
// whose new slot is free takes it.
func (t *CorrTable[V]) resize(size int) {
	old := t.slots
	t.slots = make([]corrSlot[V], size)
	for _, s := range old {
		if s.id != 0 {
			t.place(s.id, s.v, true)
		}
	}
	for id, v := range t.spill {
		if t.place(id, v, false) {
			delete(t.spill, id)
		}
	}
}
