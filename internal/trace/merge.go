package trace

import (
	"slices"
	"sync/atomic"
)

// sortMoveBudget bounds SortAdaptive's insertion sort: once it has moved
// more elements than this many per element it has placed, it hands the
// slice to an O(n log n) sort. A bench-shaped batch moves 1.2 (one stream,
// skew 48) to 18.5 (three streams, skew 256 — the worst batch of
// ram_pipelined_2t) a span; a reversed one moves i elements at its i-th,
// so it gives up at its 65th.
const sortMoveBudget = 32

// sortFallbacks, when set, is told each time SortAdaptive gives up: the
// slice's length and the moves its insertion sort had made. Only tests set
// it.
var sortFallbacks atomic.Pointer[func(n, moves int)]

// SortAdaptive sorts s by less, stably: elements neither of which is less
// than the other keep their order. It is an insertion sort — O(n +
// inversions) moves, one scan for a slice already in order and a few moves
// a span for a tracer's batch, which arrives nearly in order — that finds
// an element's place by galloping back from its predecessor and then
// bisecting, so an element displaced d places costs O(log d) calls of less.
// It gives up past sortMoveBudget moves per element placed and hands s,
// its prefix sorted and its suffix untouched, to slices.SortStableFunc, so
// no input costs O(n²): a decoded frame may hold a million spans in
// reverse. Either way the result is the one stable order.
func SortAdaptive[E any](s []E, less func(a, b E) bool) {
	moves := 0
	for i := 1; i < len(s); i++ {
		x := s[i]
		if !less(x, s[i-1]) {
			continue
		}
		// x goes after lo, the last element it is not less than (-1: none),
		// and before hi, the first it is less than.
		lo, hi := -1, i-1
		for step := 1; hi-step >= 0; step *= 2 {
			if !less(x, s[hi-step]) {
				lo = hi - step
				break
			}
			hi -= step
		}
		for lo+1 < hi {
			if m := int(uint(lo+hi) >> 1); less(x, s[m]) {
				hi = m
			} else {
				lo = m
			}
		}
		copy(s[hi+1:i+1], s[hi:i])
		s[hi] = x
		if moves += i - hi; moves > sortMoveBudget*i {
			if f := sortFallbacks.Load(); f != nil {
				(*f)(len(s), moves)
			}
			slices.SortStableFunc(s, compareBy(less))
			return
		}
	}
}

// compareBy is less as the three-way comparison the slices package takes.
func compareBy[E any](less func(a, b E) bool) func(a, b E) int {
	return func(a, b E) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	}
}

// sortSpansCanonical sorts spans into canonical timeline order, keeping
// the existing order among full ties (possible only for duplicate IDs).
func sortSpansCanonical(spans []*Span) { SortAdaptive(spans, CanonicalLess) }

// CanonicalLess is the canonical timeline order: begin ascending, outer
// levels first on ties, then span ID. SortByBegin, Memory.Trace and
// MergeRuns sort by it, so they agree exactly; core.StreamCorrelator's
// checkpoint segments are stored in it and merged by it.
func CanonicalLess(a, b *Span) bool {
	if a.Begin != b.Begin {
		return a.Begin < b.Begin
	}
	if a.Level != b.Level {
		return a.Level < b.Level
	}
	return a.ID < b.ID
}

// MergeRuns k-way-merges the given span runs into one new, canonically
// ordered slice (the SortByBegin order). Runs that are already canonically
// sorted are read in place and must not be mutated while the merge runs;
// out-of-order runs are copied and sorted privately, so a single unsorted
// run is also a convenient "sort a copy canonically". The outer slice may
// be modified in place. core.StreamCorrelator merges its immutable
// checkpoint segments with the live tail through this.
func MergeRuns(runs [][]*Span) []*Span { return MergeRunsInto(nil, runs) }

// MergeRunsInto is MergeRuns writing its result over dst, whose array is
// reused when it has the room: for a caller that merges again and again and
// keeps no result (core.StreamCorrelator's folds). dst must not overlap a
// run.
//
// n spans across k runs merge in O(n log k) comparisons, and the (usual)
// already-sorted runs skip their sort entirely: each run's order is
// discovered with an O(len) scan, sorted runs are read in place and
// out-of-order runs are copied and sorted privately. Ties across runs break
// toward the lower run index and, within a run, toward the earlier
// position — the stability a concatenate-then-stable-sort gives.
func MergeRunsInto(dst []*Span, runs [][]*Span) []*Span {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		out := append(dst[:0], runs[0]...)
		sortSpansCanonical(out)
		return out
	}
	total := 0
	for i, run := range runs {
		total += len(run)
		if !slices.IsSortedFunc(run, compareBy(CanonicalLess)) {
			run = slices.Clone(run)
			sortSpansCanonical(run)
			runs[i] = run
		}
	}

	// Two runs — the geometric checkpoint compaction's shape, and a
	// checkpointed stream's usual segments+tail snapshot — merge linearly
	// without the heap's per-span sift. Ties break toward the first run,
	// matching the heap's run-index tie-break exactly.
	if len(runs) == 2 {
		a, b := runs[0], runs[1]
		out := slices.Grow(dst[:0], total)
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if CanonicalLess(b[j], a[i]) {
				out = append(out, b[j])
				j++
			} else {
				out = append(out, a[i])
				i++
			}
		}
		out = append(out, a[i:]...)
		return append(out, b[j:]...)
	}

	// A binary heap of run heads, keyed by each run's current span with
	// the run index as tie-break.
	type head struct {
		run int
		pos int
	}
	heads := make([]head, 0, len(runs))
	less := func(a, b head) bool {
		sa, sb := runs[a.run][a.pos], runs[b.run][b.pos]
		if CanonicalLess(sa, sb) {
			return true
		}
		if CanonicalLess(sb, sa) {
			return false
		}
		return a.run < b.run
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(heads) && less(heads[l], heads[smallest]) {
				smallest = l
			}
			if r < len(heads) && less(heads[r], heads[smallest]) {
				smallest = r
			}
			if smallest == i {
				return
			}
			heads[i], heads[smallest] = heads[smallest], heads[i]
			i = smallest
		}
	}
	for i, run := range runs {
		if len(run) > 0 {
			heads = append(heads, head{run: i})
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}

	out := slices.Grow(dst[:0], total)
	for len(heads) > 0 {
		h := &heads[0]
		out = append(out, runs[h.run][h.pos])
		h.pos++
		if h.pos == len(runs[h.run]) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return out
}
