// Package interval implements an augmented interval tree keyed on virtual
// time. XSP uses it to reconstruct the parent-child relationships between
// spans captured by disjoint profilers (Section III-A of the paper): a
// span s1 is the parent of s2 if s1's interval contains s2's interval and
// s1's stack level is the nearest enabled level above s2's.
//
// The tree is an iteratively balanced (AVL) binary search tree ordered by
// interval start, with each node augmented by the maximum end time in its
// subtree so that containment queries prune aggressively.
// [Tree.SmallestContaining] answers the correlation query directly, over
// [Tree.VisitContaining], the allocation-free visitor. A point (stabbing)
// query is a containment query for a zero-length interval.
//
// The tree is the stream correlator's fallback for a window of
// overlap-heavy spans, and the whole of core.Correlate, the batch
// reference; the common properly nested case is served by ancestor stacks
// that never build a tree. Inserts are not safe for concurrent use; a fully built tree may
// be queried concurrently.
package interval
