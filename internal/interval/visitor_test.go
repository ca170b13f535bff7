package interval

import (
	"math/rand"
	"testing"

	"xsp/internal/vclock"
)

func buildTree(ivs ...Interval) *Tree {
	t := New()
	for _, iv := range ivs {
		t.Insert(iv)
	}
	return t
}

// The containment visitor reports exactly the brute-force filter of the
// inserted intervals, in ascending start order, over several seeded random
// trees of different sizes and interval lengths; every walk with an
// always-true fn runs to completion, and one returning false stops at once.
func TestVisitorsMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := randomOracle(rng, 50*int(seed), 20+40*int(seed))
		for i := 0; i < 50; i++ {
			start := vclock.Time(rng.Intn(1100))
			q := Interval{Start: start, End: start + vclock.Time(rng.Intn(60))}
			o.containing(t, q)
			o.stab(t, start)

			if !o.tree.VisitContaining(q, func(Interval) bool { return true }) {
				t.Fatal("walk with always-true fn must run to completion")
			}
			seen := 0
			done := o.tree.VisitContaining(q, func(Interval) bool { seen++; return false })
			if seen > 1 || done != (seen == 0) {
				t.Fatalf("stop on first: seen=%d done=%v", seen, done)
			}
		}
	}
}

func TestSmallestContainingEdgeCases(t *testing.T) {
	type q struct {
		name      string
		tree      *Tree
		query     Interval
		wantOK    bool
		wantValue any
	}
	self := Interval{Start: 10, End: 20, Value: "self"}
	cases := []q{
		{
			// Touching endpoints count as containment: a child may begin
			// exactly when its parent does and end exactly when it ends.
			name:   "touching endpoints",
			tree:   buildTree(Interval{Start: 10, End: 20, Value: "parent"}),
			query:  Interval{Start: 10, End: 20, Value: "child"},
			wantOK: true, wantValue: "parent",
		},
		{
			// The query interval itself must not be its own container.
			name:   "query excluded",
			tree:   buildTree(self),
			query:  self,
			wantOK: false,
		},
		{
			// Among nested containers the shortest wins, not the first.
			name: "smallest of nested chain",
			tree: buildTree(
				Interval{Start: 0, End: 100, Value: "outer"},
				Interval{Start: 5, End: 50, Value: "mid"},
				Interval{Start: 9, End: 30, Value: "inner"},
			),
			query:  Interval{Start: 10, End: 20, Value: "q"},
			wantOK: true, wantValue: "inner",
		},
		{
			// Equal-duration ties keep the first container in start order.
			name: "equal duration tie",
			tree: buildTree(
				Interval{Start: 8, End: 22, Value: "left"},
				Interval{Start: 9, End: 23, Value: "right"},
			),
			query:  Interval{Start: 10, End: 20, Value: "q"},
			wantOK: true, wantValue: "left",
		},
		{
			// A same-bounds interval with a different value is a real
			// container (duration equal to the query: the early-exit floor).
			name:   "identical bounds different value",
			tree:   buildTree(Interval{Start: 10, End: 20, Value: "twin"}, Interval{Start: 0, End: 100, Value: "outer"}),
			query:  Interval{Start: 10, End: 20, Value: "q"},
			wantOK: true, wantValue: "twin",
		},
		{
			// Overlap without containment is not a container.
			name:   "crossing overlap rejected",
			tree:   buildTree(Interval{Start: 0, End: 15, Value: "crossing"}),
			query:  Interval{Start: 10, End: 20, Value: "q"},
			wantOK: false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, ok := c.tree.SmallestContaining(c.query)
			if ok != c.wantOK {
				t.Fatalf("ok = %v, want %v (got %v)", ok, c.wantOK, got)
			}
			if ok && got.Value != c.wantValue {
				t.Fatalf("value = %v, want %v", got.Value, c.wantValue)
			}
		})
	}
}

func TestSmallestContainingAllocFree(t *testing.T) {
	tree := New()
	for i := int64(0); i < 256; i++ {
		tree.Insert(Interval{Start: vclock.Time(i), End: vclock.Time(512 - i), Value: i})
	}
	q := Interval{Start: 250, End: 260, Value: "q"}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := tree.SmallestContaining(q); !ok {
			t.Fatal("container expected")
		}
	})
	if allocs > 0 {
		t.Fatalf("SmallestContaining allocated %.1f objects per run, want 0", allocs)
	}
}
