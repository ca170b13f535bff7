// Package interval implements an augmented interval tree keyed on virtual
// time. XSP uses it to reconstruct the parent-child relationships between
// spans captured by disjoint profilers (Section III-A of the paper): a
// span s1 is the parent of s2 if s1's interval contains s2's interval and
// s1's stack level is the nearest enabled level above s2's.
//
// The tree is an iteratively balanced (AVL) binary search tree ordered by
// interval start, with each node augmented by the maximum end time in its
// subtree so that containment and overlap queries prune aggressively.
// [Tree.SmallestContaining] answers the correlation query directly;
// [Tree.VisitContaining] and [Tree.VisitOverlapping] are the
// allocation-free visitors the other queries run on. A point (stabbing)
// query is a containment query for a zero-length interval.
//
// The tree is core.Correlate's fallback for overlap-heavy traces; the
// common properly nested case is served by a sweep-line that never builds
// a tree. Inserts are not safe for concurrent use; a fully built tree may
// be queried concurrently.
package interval
