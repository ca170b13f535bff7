package interval

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"xsp/internal/vclock"
)

func iv(start, end vclock.Time, v any) Interval {
	return Interval{Start: start, End: end, Value: v}
}

// oracle is a tree beside the intervals it was fed. The brute-force answer
// to a query is a filter over those intervals; the tree's visitors must
// report the same set, in ascending start order.
type oracle struct {
	tree *Tree
	ivs  []Interval
}

func newOracle(ivs ...Interval) *oracle {
	o := &oracle{tree: New()}
	for _, in := range ivs {
		o.insert(in)
	}
	return o
}

func (o *oracle) insert(in Interval) {
	o.tree.Insert(in)
	if in.End < in.Start {
		in.Start, in.End = in.End, in.Start
	}
	o.ivs = append(o.ivs, in)
}

func (o *oracle) filter(keep func(Interval) bool) []Interval {
	var out []Interval
	for _, in := range o.ivs {
		if keep(in) {
			out = append(out, in)
		}
	}
	return out
}

// containing checks VisitContaining(q) against the brute-force filter and
// returns what the walk reported.
func (o *oracle) containing(t *testing.T, q Interval) []Interval {
	t.Helper()
	var got []Interval
	o.tree.VisitContaining(q, func(in Interval) bool { got = append(got, in); return true })
	checkSameSet(t, fmt.Sprintf("VisitContaining(%v)", q), got, o.filter(func(in Interval) bool { return in.Contains(q) }))
	return got
}

// stab is the point query: every interval containing the instant at.
func (o *oracle) stab(t *testing.T, at vclock.Time) []Interval {
	t.Helper()
	return o.containing(t, iv(at, at, nil))
}

// inOrder returns the tree's intervals by an in-order walk of its nodes.
func inOrder(tr *Tree) []Interval {
	var out []Interval
	var walk func(*node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, n.iv)
		walk(n.right)
	}
	walk(tr.root)
	return out
}

// checkSameSet fails unless got is ascending by start and holds exactly
// want's intervals. Order among equal starts is unspecified.
func checkSameSet(t *testing.T, what string, got, want []Interval) {
	t.Helper()
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a].Start < got[b].Start }) {
		t.Fatalf("%s: not ascending by start: %v", what, got)
	}
	key := func(ivs []Interval) []string {
		out := make([]string, len(ivs))
		for i, in := range ivs {
			out[i] = fmt.Sprint(in)
		}
		sort.Strings(out)
		return out
	}
	if g, w := key(got), key(want); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("%s = %v, brute force %v", what, g, w)
	}
}

func values(ivs []Interval) map[any]bool {
	out := map[any]bool{}
	for _, in := range ivs {
		out[in.Value] = true
	}
	return out
}

// randomOracle fills a tree with n random intervals; span bounds their
// length. Zero-length intervals and repeated starts occur on purpose.
func randomOracle(rng *rand.Rand, n, span int) *oracle {
	o := newOracle()
	for i := 0; i < n; i++ {
		s := vclock.Time(rng.Intn(1000))
		o.insert(iv(s, s+vclock.Time(rng.Intn(span)), i))
	}
	return o
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	o := newOracle()
	if got := o.stab(t, 5); len(got) != 0 {
		t.Fatalf("stab on empty = %v", got)
	}
	if got := o.containing(t, iv(0, 1, nil)); len(got) != 0 {
		t.Fatalf("containing on empty = %v", got)
	}
	if _, ok := tr.SmallestContaining(iv(0, 1, nil)); ok {
		t.Fatal("SmallestContaining on empty found a container")
	}
}

func TestInsertNormalizesReversedBounds(t *testing.T) {
	o := newOracle(iv(10, 2, "x"))
	all := inOrder(o.tree)
	if len(all) != 1 || all[0].Start != 2 || all[0].End != 10 {
		t.Fatalf("reversed bounds not normalized: %+v", all)
	}
	if got := o.stab(t, 5); len(got) != 1 {
		t.Fatalf("stab inside normalized bounds = %v", got)
	}
}

// A point query (a degenerate containment query) finds every level of the
// hierarchy open at that instant.
func TestStab(t *testing.T) {
	o := newOracle(iv(0, 100, "model"), iv(10, 30, "layer1"), iv(40, 70, "layer2"), iv(12, 20, "kernel"))

	got := o.stab(t, 15)
	names := values(got)
	if len(got) != 3 || !names["model"] || !names["layer1"] || !names["kernel"] {
		t.Fatalf("stab(15) = %v", got)
	}
	if got := o.stab(t, 35); len(got) != 1 || got[0].Value != "model" {
		t.Fatalf("stab(35) = %v", got)
	}
	// Both endpoints are inside: [Start, End] inclusion.
	if got := o.stab(t, 30); len(got) != 2 {
		t.Fatalf("stab(30) = %v, want model and layer1", got)
	}
}

func TestContainment(t *testing.T) {
	model := iv(0, 100, "model")
	layer := iv(10, 30, "layer")
	kernel := iv(12, 20, "kernel")
	o := newOracle(model, layer, kernel)
	tr := o.tree

	got := o.containing(t, kernel)
	if len(got) != 3 { // model, layer, and kernel itself
		t.Fatalf("containing(kernel) = %v", got)
	}
	parent, ok := tr.SmallestContaining(kernel)
	if !ok || parent.Value != "layer" {
		t.Fatalf("SmallestContaining(kernel) = %v, %v", parent, ok)
	}
	parent, ok = tr.SmallestContaining(layer)
	if !ok || parent.Value != "model" {
		t.Fatalf("SmallestContaining(layer) = %v, %v", parent, ok)
	}
	if _, ok := tr.SmallestContaining(model); ok {
		t.Fatal("model should have no parent")
	}
}

func TestTouchingEndpointsCountAsContainment(t *testing.T) {
	parent := iv(10, 30, "layer")
	child := iv(10, 30, "kernel") // identical bounds: still contained
	if !parent.Contains(child) {
		t.Fatal("identical bounds should contain")
	}
	tr := New()
	tr.Insert(parent)
	got, ok := tr.SmallestContaining(child)
	if !ok || got.Value != "layer" {
		t.Fatalf("SmallestContaining = %v, %v", got, ok)
	}
}

// The in-order walk holds every inserted interval, ascending by start.
func TestAllSorted(t *testing.T) {
	o := randomOracle(rand.New(rand.NewSource(42)), 500, 100)
	checkSameSet(t, "in-order walk", inOrder(o.tree), o.ivs)
}

// Property: the AVL invariant bounds the tree height by ~1.44*log2(n+2).
func TestBalancedHeightProperty(t *testing.T) {
	tr := New()
	n := 4096
	for i := 0; i < n; i++ { // adversarial ascending insertion
		tr.Insert(iv(vclock.Time(i), vclock.Time(i+1), i))
	}
	if h := height(tr.root); h > 18 { // 1.44*log2(4098) ~ 17.3
		t.Fatalf("height %d too large for %d sorted inserts", h, n)
	}
}

// Property: point queries agree with a brute-force scan on random
// interval sets.
func TestStabMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := randomOracle(rng, 64, 200)
		for q := 0; q < 32; q++ {
			o.stab(t, vclock.Time(rng.Intn(1200)))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: containment queries agree with a brute-force scan.
func TestContainingMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := randomOracle(rng, 64, 300)
		for q := 0; q < 32; q++ {
			s := vclock.Time(rng.Intn(1000))
			o.containing(t, iv(s, s+vclock.Time(rng.Intn(100)), nil))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDuration(t *testing.T) {
	if d := iv(100, 350, nil).Duration(); d != 250 {
		t.Fatalf("Duration = %v", d)
	}
}
