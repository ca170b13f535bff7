package core

import (
	"runtime"
	"slices"
	"strings"
	"sync"

	"xsp/internal/interval"
	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// correlate reconstructs the parent-child relationships that the disjoint
// profilers could not record (Section III-A of the paper), in place. Spans
// that already carry a parent reference keep it. For the rest:
//
//   - a launch span's parent is the smallest span at the nearest enabled
//     level above that fully contains it;
//   - an execution span's parent is its launch span's parent, resolved
//     through the shared correlation_id — execution happens later on the
//     device, so containment in the launching layer cannot be assumed.
//
// It is the one correlator xsp-server runs: the whole trace fed to a
// StreamCorrelator as one batch, then flushed. A zero reorder window is
// exact here because a batch is buffered whole before any of it drains, so
// every span is released in sweep order. Correlate (benchapi.go) is the
// independent batch reference the oracles hold it to.
func correlate(tr *trace.Trace) {
	sc := NewStreamCorrelator(StreamOptions{})
	sc.Feed(tr.Spans...)
	sc.Flush()
}

// compareEvents is the stream correlator's sweep order (its reorder
// buffer releases in it): begin ascending, outer levels first
// on ties so parents are pushed before their children are queried, then
// longer spans first so same-begin containers nest, then span ID.
func compareEvents(a, b *trace.Span) int {
	switch {
	case a.Begin != b.Begin:
		if a.Begin < b.Begin {
			return -1
		}
		return 1
	case a.Level != b.Level:
		if a.Level < b.Level {
			return -1
		}
		return 1
	case a.End != b.End:
		if a.End > b.End {
			return -1
		}
		return 1
	case a.ID != b.ID:
		if a.ID < b.ID {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// stackConflict reports whether pushing s onto a stack whose live top is
// top would break the sweep-line invariants the fast path depends on:
//
//   - a duplicate interval (identical bounds) makes the smallest container
//     ambiguous, so the tree path's insertion-order tie-break must decide;
//   - a crossing overlap (s extends past top's end without containing it)
//     is the pipelined-execution signature that degrades the ancestor
//     stacks toward O(n) scans.
//
// The stream correlator's per-window degradation uses this predicate, and
// the test-side sweep path's eligibility check does too, so both agree on
// what counts as overlap.
func stackConflict(top, s *trace.Span) bool {
	if top.Begin == s.Begin && top.End == s.End {
		return true // duplicate interval
	}
	return s.Begin < top.End && top.End < s.End // crossing overlap
}

// perLevel holds one T per stack level. The five paper levels index a flat
// array — a map here would put a hash lookup and mapassign on every one of
// the sweep's pushes; exotic level numbers spill into a pointer map.
type perLevel[T any] struct {
	flat     [16]T
	overflow map[trace.Level]*T
}

// slot returns the T for a level, creating the overflow entry on first use.
func (p *perLevel[T]) slot(l trace.Level) *T {
	if l >= 0 && int(l) < len(p.flat) {
		return &p.flat[l]
	}
	if v, ok := p.overflow[l]; ok {
		return v
	}
	if p.overflow == nil {
		p.overflow = make(map[trace.Level]*T)
	}
	v := new(T)
	p.overflow[l] = v
	return v
}

// levelStacks maintains, per stack level, the spans whose interval is
// still active at the sweep position. Entries are pushed in begin order;
// dead entries (ended strictly before the current begin) are popped
// lazily. Every container of a query interval is guaranteed to be on its
// level's stack when the query runs: containers begin no later than the
// query and end no earlier, so they can never have been popped.
type levelStacks struct{ perLevel[[]*trace.Span] }

func popDead(st *[]*trace.Span, begin vclock.Time) {
	stack := *st
	for n := len(stack); n > 0 && stack[n-1].End < begin; n-- {
		stack = stack[:n-1]
	}
	*st = stack
}

// parent finds the smallest active span containing s at the nearest level
// above s's level that yields a hit, mirroring the interval-tree walk. The
// bottom-to-top scan visits candidates in ascending begin order — the same
// order the tree's in-order traversal uses — so tie-breaks agree.
func (ls *levelStacks) parent(levels []trace.Level, s *trace.Span) *trace.Span {
	for i := len(levels) - 1; i >= 0; i-- {
		l := levels[i]
		if l >= s.Level {
			continue
		}
		st := ls.slot(l)
		popDead(st, s.Begin)
		var best *trace.Span
		for _, c := range *st {
			if c.Begin <= s.Begin && s.End <= c.End {
				if best == nil || c.End-c.Begin < best.End-best.Begin {
					best = c
				}
			}
		}
		if best != nil {
			return best
		}
		// Keep walking up: a span that escapes its layer may still be
		// inside the model span.
	}
	return nil
}

// parallelQueryThreshold is the span count below which the per-span
// interval-tree query loops stay serial: goroutine fan-out only pays for
// itself once there are a few thousand independent queries to amortize it.
const parallelQueryThreshold = 2048

// queryShards runs fn over contiguous shards of [0, n), one goroutine per
// available CPU — serially when n is small or only one CPU is available.
// Callers guarantee fn touches disjoint state per index (read-only trees,
// per-index output slots).
func queryShards(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < parallelQueryThreshold || workers < 2 {
		fn(0, n)
		return
	}
	stride := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += stride {
		hi := min(lo+stride, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// treeParents resolves the containment parent of every span concurrently,
// returning parent IDs indexed like spans (zero for no parent). The
// queries are pure reads on fully built interval trees — the tree package
// documents a built tree as safe for concurrent queries — and independent
// of the correlation table, so they shard by span; callers apply the
// results serially wherever ordering (correlation-table fills, dirty
// tracking) matters. The stream correlator's window close and straggler
// repair, and the batch reference (Correlate), all query through this.
func treeParents(levels []trace.Level, tree func(trace.Level) *interval.Tree, spans []*trace.Span) []uint64 {
	out := make([]uint64, len(spans))
	queryShards(len(spans), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if p := treeParentAt(levels, tree, spans[i]); p != nil {
				out[i] = p.ID
			}
		}
	})
	return out
}

// treeParentAt finds the smallest span containing s at the nearest level
// above s's level that yields a hit, walking per-level interval trees;
// levels the lookup has no tree for are skipped. The stream correlator's
// window fallback and the batch reference (Correlate) share this walk, so
// their parent assignment cannot drift apart.
func treeParentAt(levels []trace.Level, tree func(trace.Level) *interval.Tree, s *trace.Span) *trace.Span {
	for i := len(levels) - 1; i >= 0; i-- {
		l := levels[i]
		if l >= s.Level {
			continue
		}
		t := tree(l)
		if t == nil {
			continue
		}
		q := interval.Interval{Start: s.Begin, End: s.End, Value: s}
		if got, ok := t.SmallestContaining(q); ok {
			return got.Value.(*trace.Span)
		}
		// Keep walking up: a span that escapes its layer may still be
		// inside the model span.
	}
	return nil
}

// Ambiguous reports whether the trace contains kernel executions whose
// layer attribution could not be determined — which happens when execution
// crosses layer boundaries (pipelined execution) and no launch span exists
// to resolve it through the correlation id (e.g. a profiler that only
// captures the activity API). XSP responds by profiling again with the
// events serialized (CUDA_LAUNCH_BLOCKING=1 for GPUs), which the paper
// notes requires no application modification. Memory copies legitimately
// belong to the model span (they frame the layer stream), so they are
// never ambiguous.
func Ambiguous(tr *trace.Trace) bool {
	if !slices.ContainsFunc(tr.Spans, func(s *trace.Span) bool { return s.Level == trace.LevelLayer }) {
		return false // nothing finer than the model span to attribute to
	}
	byID := tr.SpansByID()
	for _, s := range tr.Spans {
		if s.Level != trace.LevelKernel {
			continue
		}
		if s.Kind == trace.KindLaunch && s.Name != "cudaLaunchKernel" {
			continue // memcpy and other non-kernel API calls
		}
		if s.Kind == trace.KindExec && strings.HasPrefix(s.Name, "Memcpy") {
			continue
		}
		if s.ParentID == 0 {
			return true
		}
		if p := byID[s.ParentID]; p != nil && p.Level != trace.LevelLayer {
			return true
		}
	}
	return false
}
