package interval

import (
	"testing"

	"xsp/internal/vclock"
)

// buildAndRelease grows a tree of n intervals out of the pool and releases
// it again, checking query results against the brute-force oracle.
func buildAndRelease(t *testing.T, p *Pool, n int) {
	t.Helper()
	o := &oracle{tree: NewIn(p)}
	for i := 0; i < n; i++ {
		o.insert(Interval{Start: vclock.Time(i), End: vclock.Time(i + 10), Value: i})
	}
	if got := o.containing(t, Interval{Start: vclock.Time(n / 2), End: vclock.Time(n/2 + 1)}); len(got) == 0 {
		t.Fatal("pooled tree found no container")
	}
	pooled := o.tree
	if pooled.Len() != n {
		t.Fatalf("pooled tree Len = %d, want %d", pooled.Len(), n)
	}
	pooled.Release()
	if h := height(pooled.root); pooled.Len() != 0 || h != 0 {
		t.Fatalf("after Release: Len=%d height=%d, want 0/0", pooled.Len(), h)
	}
}

func TestPoolReuse(t *testing.T) {
	var p Pool
	buildAndRelease(t, &p, 200) // warm the pool

	// Steady state: every subsequent build must come entirely from the
	// free list.
	allocs := testing.AllocsPerRun(20, func() {
		tr := NewIn(&p)
		for i := 0; i < 200; i++ {
			tr.Insert(Interval{Start: vclock.Time(i), End: vclock.Time(i + 10)})
		}
		tr.Release()
	})
	// NewIn allocates the Tree header itself; nodes must be free.
	if allocs > 1 {
		t.Fatalf("pooled build allocated %.1f objects per run, want <= 1 (tree header only)", allocs)
	}
}

func TestPoolClearsValues(t *testing.T) {
	var p Pool
	tr := NewIn(&p)
	tr.Insert(Interval{Start: 1, End: 2, Value: "payload"})
	tr.Release()
	for n := p.free; n != nil; n = n.left {
		if n.iv.Value != nil {
			t.Fatalf("released node still pins value %v", n.iv.Value)
		}
	}
}

func TestReleaseWithoutPool(t *testing.T) {
	tr := New()
	tr.Insert(Interval{Start: 1, End: 2})
	tr.Release()
	if tr.Len() != 0 {
		t.Fatalf("Release on pool-less tree left Len=%d", tr.Len())
	}
	tr.Insert(Interval{Start: 3, End: 4})
	if tr.Len() != 1 {
		t.Fatalf("tree not reusable after Release")
	}
}
