package trace

import (
	"fmt"
	"math/rand"
	"testing"
)

// corrIDs are the id shapes a CorrTable must serve: the dense range CUPTI's
// counter hands out, the stride NewSpanID leaves when correlation ids
// interleave with span ids, ids that all share one slot at any size below
// 2^20, and ids with no structure at all.
var corrIDs = []struct {
	name string
	id   func(rng *rand.Rand, i int) uint64
}{
	{"dense", func(_ *rand.Rand, i int) uint64 { return uint64(i) + 1 }},
	{"stride3", func(_ *rand.Rand, i int) uint64 { return 3*uint64(i) + 1 }},
	{"colliding", func(_ *rand.Rand, i int) uint64 { return uint64(i+1) << 20 }},
	{"random", func(rng *rand.Rand, _ int) uint64 { return rng.Uint64() | 1 }},
}

// TestCorrTableMatchesMap drives random Put/Get/Delete sequences — growth
// phases, drain phases that shrink the array, overwrites — over every id
// shape and holds the table to a reference map after every operation: Get on
// the id touched and on one never stored, Len, and Each visiting every entry
// exactly once. The slot count stays within max(64, 16 × live) throughout.
func TestCorrTableMatchesMap(t *testing.T) {
	for _, shape := range corrIDs {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			pool := make([]uint64, 1024)
			seen := make(map[uint64]bool)
			for i := range pool {
				for pool[i] = shape.id(rng, i); seen[pool[i]]; pool[i] = shape.id(rng, i) {
				}
				seen[pool[i]] = true
			}
			absent := shape.id(rng, len(pool))
			for seen[absent] {
				absent = shape.id(rng, len(pool))
			}

			var tab CorrTable[int]
			ref := make(map[uint64]int)
			spilled := false
			for op := 0; op < 6_000; op++ {
				putShare := []int{90, 20, 60}[op/2000] // grow, drain, churn
				id := pool[rng.Intn(len(pool))]
				if rng.Intn(100) < putShare {
					if !tab.Put(id, op) {
						t.Fatalf("op %d: Put(%#x) refused", op, id)
					}
					ref[id] = op
				} else {
					tab.Delete(id)
					delete(ref, id)
				}
				spilled = spilled || len(tab.spill) > 0

				for _, probe := range []uint64{id, absent} {
					v, ok := tab.Get(probe)
					if want, wantOK := ref[probe]; v != want || ok != wantOK {
						t.Fatalf("op %d: Get(%#x) = %d, %v; want %d, %v", op, probe, v, ok, want, wantOK)
					}
				}
				if tab.Len() != len(ref) {
					t.Fatalf("op %d: Len %d, want %d", op, tab.Len(), len(ref))
				}
				visited := make(map[uint64]bool, len(ref))
				tab.Each(func(id uint64, v int) {
					if visited[id] {
						t.Fatalf("op %d: Each visited %#x twice", op, id)
					}
					visited[id] = true
					if want, ok := ref[id]; !ok || v != want {
						t.Fatalf("op %d: Each gave %#x = %d; reference holds %d, %v", op, id, v, want, ok)
					}
				})
				if len(visited) != len(ref) {
					t.Fatalf("op %d: Each visited %d entries, want %d", op, len(visited), len(ref))
				}
				if len(tab.slots) > max(corrTableMin, 16*tab.Len()) {
					t.Fatalf("op %d: %d slots for %d live entries", op, len(tab.slots), tab.Len())
				}
			}
			if (shape.name == "colliding" || shape.name == "random") && !spilled {
				t.Fatal("nothing spilled: the shape no longer exercises the path it is here for")
			}
		})
	}
}

// TestCorrTableSteadyState pins the case the table exists for: a sliding
// window of 65 536 live correlation ids, dense and at stride 3, spills
// nothing and allocates nothing per insert-and-evict once warm.
func TestCorrTableSteadyState(t *testing.T) {
	const window = 65_536
	for _, stride := range []uint64{1, 3} {
		t.Run(fmt.Sprint("stride", stride), func(t *testing.T) {
			var tab CorrTable[uint64]
			next, oldest := uint64(1), uint64(1)
			slide := func() {
				tab.Put(next, next)
				next += stride
				if tab.Len() > window {
					tab.Delete(oldest)
					oldest += stride
				}
			}
			for i := 0; i < 3*window; i++ {
				slide()
			}
			if allocs := testing.AllocsPerRun(window, slide); allocs != 0 {
				t.Fatalf("%v allocations per insert-and-evict at steady state, want 0", allocs)
			}
			if len(tab.spill) != 0 || tab.Len() != window {
				t.Fatalf("window of %d live ids: %d live, %d spilled", window, tab.Len(), len(tab.spill))
			}
		})
	}
}

// TestCorrTableShrinksAfterBurst: a burst's peak is not pinned. After a
// million-entry burst drains, the slot array is back within max(64, 16 ×
// live), at a thousand survivors and at none.
func TestCorrTableShrinksAfterBurst(t *testing.T) {
	const burst = 1 << 20
	var tab CorrTable[struct{}]
	for id := uint64(1); id <= burst; id++ {
		tab.Put(id, struct{}{})
	}
	for _, keep := range []int{1000, 0} {
		for id := uint64(1); id <= uint64(burst-keep); id++ {
			tab.Delete(id)
		}
		if tab.Len() != keep || len(tab.slots) > max(corrTableMin, 16*keep) {
			t.Fatalf("%d live after the drain, %d slots", tab.Len(), len(tab.slots))
		}
	}
}

// TestCorrTableRefusesZero: id 0 marks an empty slot and means "no
// correlation", so it is refused, not stored as an empty slot would read.
func TestCorrTableRefusesZero(t *testing.T) {
	var tab CorrTable[int]
	tab.Put(5, 5)
	if tab.Put(0, 1) {
		t.Fatal("Put(0) reported storing")
	}
	if v, ok := tab.Get(0); ok || v != 0 {
		t.Fatalf("Get(0) = %d, %v after a refused Put", v, ok)
	}
	n := 0
	tab.Each(func(id uint64, _ int) {
		if id == 0 {
			t.Fatal("Each visited id 0")
		}
		n++
	})
	if tab.Len() != 1 || n != 1 {
		t.Fatalf("Len %d, Each visited %d: want the one entry stored", tab.Len(), n)
	}
}

// BenchmarkCorrTable times one insert-and-evict on a sliding window of 65 536
// live ids, the table against the map it replaced, for each id shape.
func BenchmarkCorrTable(b *testing.B) {
	const window = 65_536
	for _, shape := range corrIDs {
		rng := rand.New(rand.NewSource(1))
		ids := make([]uint64, 4*window)
		for i := range ids {
			ids[i] = shape.id(rng, i)
		}
		b.Run(shape.name+"/table", func(b *testing.B) {
			var tab CorrTable[uint64]
			for i := 0; i < b.N; i++ {
				tab.Put(ids[i%len(ids)], uint64(i))
				if i >= window {
					tab.Delete(ids[(i-window)%len(ids)])
				}
			}
		})
		b.Run(shape.name+"/map", func(b *testing.B) {
			m := make(map[uint64]uint64)
			for i := 0; i < b.N; i++ {
				m[ids[i%len(ids)]] = uint64(i)
				if i >= window {
					delete(m, ids[(i-window)%len(ids)])
				}
			}
		})
	}
}
