package interval

import "xsp/internal/vclock"

// Interval is a half-open time range [Start, End) with an opaque payload.
type Interval struct {
	Start, End vclock.Time
	Value      any
}

// Contains reports whether iv fully contains other ([Start,End] inclusion,
// matching the paper's "interval set inclusion" test). Touching endpoints
// count as containment because a child span may begin exactly when its
// parent does (e.g. the first kernel launch inside a layer).
func (iv Interval) Contains(other Interval) bool {
	return iv.Start <= other.Start && other.End <= iv.End
}

// Duration returns the length of the interval.
func (iv Interval) Duration() vclock.Duration { return iv.End.Sub(iv.Start) }

type node struct {
	iv          Interval
	maxEnd      vclock.Time
	height      int
	left, right *node
}

// Tree is an augmented interval tree. The zero value is an empty tree ready
// for use. Tree is not safe for concurrent mutation.
type Tree struct {
	root *node
	size int
	pool *Pool
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Pool is a free list of tree nodes. Trees created with NewIn draw their
// nodes from the pool and give them back on Release, so a caller that
// repeatedly builds and discards trees (e.g. one per degraded window)
// reaches a steady state with zero node allocations. A Pool is not safe
// for concurrent use; share it only among trees mutated from one
// goroutine. The zero value is ready to use.
type Pool struct {
	free *node
}

// NewIn returns an empty tree whose nodes are drawn from p. A nil p is
// equivalent to New(). Call Release when done with the tree to recycle
// its nodes.
func NewIn(p *Pool) *Tree { return &Tree{pool: p} }

func (t *Tree) newNode(iv Interval) *node {
	if t.pool != nil {
		if n := t.pool.free; n != nil {
			t.pool.free = n.left
			*n = node{iv: iv}
			return n
		}
	}
	return &node{iv: iv}
}

// Release empties the tree and, when it was created with NewIn, returns
// every node to the pool. Stored Interval values are cleared so the pool
// does not pin payloads. The tree remains usable (empty) afterwards.
func (t *Tree) Release() {
	if t.pool == nil {
		t.root, t.size = nil, 0
		return
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		l, r := n.left, n.right
		*n = node{left: t.pool.free}
		t.pool.free = n
		walk(l)
		walk(r)
	}
	walk(t.root)
	t.root, t.size = nil, 0
}

// Len returns the number of intervals stored.
func (t *Tree) Len() int { return t.size }

// Insert adds an interval to the tree. Intervals with identical starts are
// kept (duplicates allowed); insertion order among equal starts is not
// specified.
func (t *Tree) Insert(iv Interval) {
	if iv.End < iv.Start {
		iv.Start, iv.End = iv.End, iv.Start
	}
	t.root = t.insert(t.root, iv)
	t.size++
}

func height(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

func maxEnd(n *node) vclock.Time {
	if n == nil {
		return -1 << 62
	}
	return n.maxEnd
}

func (n *node) update() {
	n.height = 1 + max(height(n.left), height(n.right))
	n.maxEnd = n.iv.End
	if l := maxEnd(n.left); l > n.maxEnd {
		n.maxEnd = l
	}
	if r := maxEnd(n.right); r > n.maxEnd {
		n.maxEnd = r
	}
}

func rotateRight(y *node) *node {
	x := y.left
	y.left = x.right
	x.right = y
	y.update()
	x.update()
	return x
}

func rotateLeft(x *node) *node {
	y := x.right
	x.right = y.left
	y.left = x
	x.update()
	y.update()
	return y
}

func balance(n *node) *node {
	n.update()
	switch bf := height(n.left) - height(n.right); {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func (t *Tree) insert(n *node, iv Interval) *node {
	if n == nil {
		nn := t.newNode(iv)
		nn.update()
		return nn
	}
	if iv.Start < n.iv.Start {
		n.left = t.insert(n.left, iv)
	} else {
		n.right = t.insert(n.right, iv)
	}
	return balance(n)
}

// VisitContaining calls fn for every stored interval that fully contains
// q, in ascending start order, without allocating. fn returns false to
// stop the walk early. VisitContaining reports whether the walk ran to
// completion.
func (t *Tree) VisitContaining(q Interval, fn func(Interval) bool) bool {
	return visitContaining(t.root, q, fn)
}

func visitContaining(n *node, q Interval, fn func(Interval) bool) bool {
	if n == nil || n.maxEnd < q.End {
		return true
	}
	if !visitContaining(n.left, q, fn) {
		return false
	}
	if n.iv.Contains(q) && !fn(n.iv) {
		return false
	}
	if q.Start >= n.iv.Start {
		return visitContaining(n.right, q, fn)
	}
	return true
}

// SmallestContaining returns the shortest stored interval that fully
// contains q and is not q itself (compared by pointer-free identity of
// bounds and value). It returns the zero Interval and false when no strict
// container exists. XSP uses this to find a span's immediate parent.
//
// The search runs over VisitContaining, so it allocates nothing, and it
// exits early once a container as short as q itself is seen — no strict
// container can be shorter than the query it contains.
func (t *Tree) SmallestContaining(q Interval) (Interval, bool) {
	best := Interval{}
	found := false
	floor := q.Duration()
	t.VisitContaining(q, func(c Interval) bool {
		if c.Start == q.Start && c.End == q.End && c.Value == q.Value {
			return true // the query interval itself
		}
		if !found || c.Duration() < best.Duration() {
			best, found = c, true
			if best.Duration() == floor {
				return false // cannot get smaller than the query
			}
		}
		return true
	})
	return best, found
}
