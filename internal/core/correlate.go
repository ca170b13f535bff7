package core

import (
	"cmp"
	"runtime"
	"slices"
	"strings"
	"sync"

	"xsp/internal/interval"
	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// Correlate reconstructs the parent-child relationships that the disjoint
// profilers could not record (Section III-A of the paper). Spans that
// already carry a parent reference keep it. For the rest:
//
//   - a launch span's parent is the smallest span at the nearest enabled
//     level above that fully contains it;
//   - an execution span's parent is its launch span's parent, resolved
//     through the shared correlation_id — execution happens later on the
//     device, so containment in the launching layer cannot be assumed.
//
// Containment lookups run on a sort-once sweep-line over (Begin, level)
// with an active-ancestor stack per level; overlap-heavy traces (e.g.
// pipelined layers on concurrent streams) fall back to per-level interval
// trees, built concurrently. Both paths assign identical parents.
func Correlate(tr *trace.Trace) {
	levels := tr.Levels()
	if len(levels) == 0 {
		return
	}
	if events := sortedEvents(tr); eventsEligible(events, levels) {
		correlateSweep(tr, levels, events)
	} else {
		correlateTree(tr, levels)
	}
}

// compareEvents is the sweep order shared by the batch sort and the
// stream correlator's reorder buffer: begin ascending, outer levels first
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

// sortedEvents returns the spans in sweep order (compareEvents).
func sortedEvents(tr *trace.Trace) []*trace.Span {
	events := make([]*trace.Span, len(tr.Spans))
	copy(events, tr.Spans)
	slices.SortFunc(events, compareEvents)
	return events
}

// eventsEligible scans every parent-capable level (all but the deepest —
// the deepest level is never queried for parents) and rejects:
//
//   - crossing overlaps (a span extending past an earlier span's end
//     without containing it): pipelined execution keeps such spans active
//     together, degrading the ancestor stacks toward O(n) scans;
//   - duplicate intervals (two spans with identical bounds): the smallest
//     container is then ambiguous and the tree path's tie-break, which
//     depends on insertion order, must be preserved exactly.
func eventsEligible(events []*trace.Span, levels []trace.Level) bool {
	if len(levels) < 2 {
		return true
	}
	deepest := levels[len(levels)-1]
	var stacks levelStacks
	for _, s := range events {
		if s.Level == deepest {
			continue
		}
		st := stacks.slot(s.Level)
		popDead(st, s.Begin)
		if stack := *st; len(stack) > 0 && stackConflict(stack[len(stack)-1], s) {
			return false
		}
		*st = append(*st, s)
	}
	return true
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
// Both eventsEligible and the stream correlator's per-window degradation
// use this predicate, so batch and stream agree on what counts as overlap.
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

func (ls *levelStacks) push(s *trace.Span) {
	st := ls.slot(s.Level)
	popDead(st, s.Begin)
	*st = append(*st, s)
}

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

func correlateSweep(tr *trace.Trace, levels []trace.Level, events []*trace.Span) {
	top := levels[0]

	// Launch spans that pass 1 will assign, recorded in trace order up
	// front so launchParent is filled exactly as the tree path fills it
	// (launches with pre-recorded parents are skipped there too).
	var pass1Launches []*trace.Span
	for _, s := range tr.Spans {
		if s.ParentID == 0 && s.Level != top && s.Kind == trace.KindLaunch {
			pass1Launches = append(pass1Launches, s)
		}
	}

	// First pass: launch spans and synchronous spans find parents by
	// containment as the sweep advances.
	stacks := new(levelStacks)
	for _, s := range events {
		if s.ParentID == 0 && s.Level != top && s.Kind != trace.KindExec {
			if p := stacks.parent(levels, s); p != nil {
				s.ParentID = p.ID
			}
		}
		stacks.push(s)
	}

	var launchParent trace.CorrTable[uint64] // correlation id -> parent span id (Put refuses id 0)
	launchParent.Grow(len(pass1Launches))
	for _, s := range pass1Launches {
		launchParent.Put(s.CorrelationID, s.ParentID)
	}

	// Second pass: execution spans inherit the launch span's parent via
	// correlation id; device-only records with no launch span (e.g. a
	// trace captured with the activity API alone) fall back to
	// containment in a fresh sweep.
	var pending map[*trace.Span]bool
	for _, s := range tr.Spans {
		if s.ParentID != 0 || s.Kind != trace.KindExec {
			continue
		}
		if pid, _ := launchParent.Get(s.CorrelationID); pid != 0 {
			s.ParentID = pid
			continue
		}
		if pending == nil {
			pending = make(map[*trace.Span]bool)
		}
		pending[s] = true
	}
	if len(pending) == 0 {
		return
	}
	stacks = new(levelStacks)
	for _, s := range events {
		if pending[s] {
			if p := stacks.parent(levels, s); p != nil {
				s.ParentID = p.ID
			}
		}
		stacks.push(s)
	}
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
// tracking) matters. The batch tree path, the stream correlator's window
// close, and the straggler repair all query through this.
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
// levels the lookup has no tree for are skipped. The batch tree path and
// the stream correlator's window fallback share this walk, so their
// parent assignment cannot drift apart.
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

// correlateTree is the interval-tree path: one tree per level, queried
// span by span. It handles arbitrary overlap. The spans split by level in
// one pass, and each level's slice is sorted by begin stably over Spans
// order — the insertion order the tree's tie-break among equal-duration
// containers depends on (trace.Trace.ByLevel's order) — and the trees
// build concurrently, one goroutine per level.
func correlateTree(tr *trace.Trace, levels []trace.Level) {
	perLevel := make([][]*trace.Span, len(levels))
	for _, s := range tr.Spans {
		// The deepest level's tree can never be consulted — parent queries
		// only walk levels above the querying span's — and it would hold
		// the bulk of the spans (the kernels). treeParentAt skips nil
		// trees, so eliding it is invisible.
		if i := slices.Index(levels, s.Level); i < len(levels)-1 {
			perLevel[i] = append(perLevel[i], s)
		}
	}
	trees := make([]*interval.Tree, len(levels))
	var wg sync.WaitGroup
	for i, spans := range perLevel[:len(levels)-1] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slices.SortStableFunc(spans, func(a, b *trace.Span) int { return cmp.Compare(a.Begin, b.Begin) })
			t := interval.New()
			for _, s := range spans {
				t.Insert(interval.Interval{Start: s.Begin, End: s.End, Value: s})
			}
			trees[i] = t
		}()
	}
	wg.Wait()

	byLevel := make(map[trace.Level]*interval.Tree, len(levels))
	for i, l := range levels {
		byLevel[l] = trees[i]
	}
	tree := func(l trace.Level) *interval.Tree { return byLevel[l] }

	// First pass: launch spans and synchronous spans find parents by
	// containment. The per-span queries are read-only once the trees are
	// built, so they shard across CPUs (treeParents); the serial
	// application below fills the correlation table in trace order,
	// keeping the duplicate-correlation-id tie-break identical to the
	// serial loop this replaces.
	var pass1 []*trace.Span
	for _, s := range tr.Spans {
		if s.ParentID != 0 || s.Level == levels[0] {
			continue
		}
		if s.Kind == trace.KindExec {
			continue // second pass
		}
		pass1 = append(pass1, s)
	}
	parents := treeParents(levels, tree, pass1)
	var launchParent trace.CorrTable[uint64] // correlation id -> parent span id (Put refuses id 0)
	launchParent.Grow(len(pass1))
	for i, s := range pass1 {
		if parents[i] != 0 {
			s.ParentID = parents[i]
		}
		if s.Kind == trace.KindLaunch {
			launchParent.Put(s.CorrelationID, s.ParentID)
		}
	}

	// Second pass: execution spans inherit the launch span's parent via
	// correlation id; device-only records fall back to containment —
	// those containment queries shard the same way.
	var pass2 []*trace.Span
	for _, s := range tr.Spans {
		if s.ParentID != 0 || s.Kind != trace.KindExec {
			continue
		}
		if pid, _ := launchParent.Get(s.CorrelationID); pid != 0 {
			s.ParentID = pid
			continue
		}
		pass2 = append(pass2, s)
	}
	parents = treeParents(levels, tree, pass2)
	for i, s := range pass2 {
		if parents[i] != 0 {
			s.ParentID = parents[i]
		}
	}
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
