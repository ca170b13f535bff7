// The API only the benchmark (bench/replica.go, bench/check.go) calls. The
// benchmark's code is frozen, so these names stay while it compiles against
// them; each is a thin adapter over the product path or, for Correlate, the
// reference it is checked against. Product code never names them
// (TestCompatQuarantine in unusedapi_test.go holds it to that):
//
//   - TenantSet, TenantSetOptions, NewTenantSet, TenantSet.Stream and
//     TenantSet.Keys: a Table of OpenTenantStream results;
//   - TenantStream, OpenTenantStream and the accessors Correlator, Store,
//     Recovery and Err: OpenStream's three results as one value;
//   - TenantStream.Publish and IngestLogged: the stream as a tap and as a
//     trace.DurableSink;
//   - Correlate: the batch reference the stream correlator is held to, by
//     bench/check.go and by the oracles in tests across the module.
//
// A field cannot leave its struct, so this one stays where it is and is
// compat all the same:
//
//	StreamOptions.Isolated  Feed copies every span's header first
//
// Isolated makes Feed copy every span's header and entries
// (trace.CloneHeaders) before using it, so the correlator's parent links
// never write into spans a concurrent reader (or the publishing tracer) still
// holds. The copy shares the strings, which are immutable once published.
// The replica sets it
// because its tenants keep a raw Memory beside the correlator; xsp-server's
// correlator is the only holder of its spans.

package core

import (
	"cmp"
	"slices"
	"sync"

	"xsp/internal/interval"
	"xsp/internal/segio"
	"xsp/internal/trace"
)

// TenantStream is one tenant's stream: OpenStream's results.
type TenantStream struct {
	sc    *StreamCorrelator
	store *segio.Store
	rec   *segio.Recovery
}

// OpenTenantStream is OpenStream, its results held as one value.
func OpenTenantStream(key string, opts StreamOptions, open func() (*segio.Store, *segio.Recovery, error)) *TenantStream {
	st := &TenantStream{}
	st.sc, st.store, st.rec = OpenStream(key, opts, open)
	return st
}

// Correlator returns the tenant's streaming correlator.
func (st *TenantStream) Correlator() *StreamCorrelator { return st.sc }

// Store returns the tenant's durable store, nil when it runs RAM-only.
func (st *TenantStream) Store() *segio.Store { return st.store }

// Recovery returns what the tenant's recovery found, nil without a store.
func (st *TenantStream) Recovery() *segio.Recovery { return st.rec }

// Err returns the open or recovery error that degraded the tenant to
// RAM-only, or nil: the correlator's latched error when the tenant was left
// without a store.
func (st *TenantStream) Err() error {
	if st.store != nil {
		return nil
	}
	return st.sc.DurabilityErr()
}

// Publish feeds spans to the tenant's correlator, implementing
// trace.Collector.
func (st *TenantStream) Publish(spans ...*trace.Span) { st.sc.Feed(spans...) }

// IngestLogged feeds one batch through the tenant's durability barrier,
// implementing trace.DurableSink.
func (st *TenantStream) IngestLogged(batchID uint64, spans []*trace.Span) error {
	return st.sc.FeedLogged(batchID, spans...)
}

// isolate applies StreamOptions.Isolated to a batch about to be fed.
func (o *StreamOptions) isolate(spans []*trace.Span) []*trace.Span {
	if o.Isolated {
		return trace.CloneHeaders(spans)
	}
	return spans
}

// TenantSetOptions configures a TenantSet.
type TenantSetOptions struct {
	// Stream is the option template every tenant's correlator is built
	// from. Its Store field is ignored: durability is wired per tenant
	// through OpenStore.
	Stream StreamOptions

	// InitStream, when non-nil, customizes one tenant's stream options
	// before OpenTenantStream builds (and recovers) the correlator, so a
	// per-tenant StreamOptions.Observer sees recovered history too.
	InitStream func(tenant string, opts StreamOptions) StreamOptions

	// OpenStore opens (or creates) the named tenant's durable store: the
	// open argument of the tenant's OpenTenantStream call. Nil runs every
	// tenant RAM-only.
	OpenStore func(tenant string) (*segio.Store, *segio.Recovery, error)
}

// TenantSet is a table of OpenTenantStream results, each built on first
// use.
type TenantSet struct {
	opts TenantSetOptions
	tb   *trace.Table[*TenantStream]
}

// NewTenantSet returns an empty set.
func NewTenantSet(opts TenantSetOptions) *TenantSet {
	ts := &TenantSet{opts: opts}
	ts.tb = trace.NewTable(ts.open)
	return ts
}

func (ts *TenantSet) open(key string) *TenantStream {
	opts := ts.opts.Stream
	if ts.opts.InitStream != nil {
		opts = ts.opts.InitStream(key, opts)
	}
	var open func() (*segio.Store, *segio.Recovery, error)
	if ts.opts.OpenStore != nil {
		open = func() (*segio.Store, *segio.Recovery, error) { return ts.opts.OpenStore(key) }
	}
	return OpenTenantStream(key, opts, open)
}

// Stream returns the named tenant's stream, creating (and, with OpenStore
// set, recovering) it on first use. The empty key canonicalizes to
// trace.DefaultTenant; an invalid key is an error.
func (ts *TenantSet) Stream(key string) (*TenantStream, error) {
	if err := trace.ValidateTenant(key); err != nil {
		return nil, err
	}
	return ts.tb.Open(key), nil
}

// Keys returns every tenant key the set has created, in creation order.
func (ts *TenantSet) Keys() []string { return ts.tb.Keys() }

// Correlate is the batch reference for the parent reconstruction the
// product runs as a stream (correlate, correlate.go): the same parents,
// reached independently of the stream's reorder buffer, ancestor stacks
// and degraded windows. It queries one interval tree per level, so any
// overlap is handled by one path. Spans that already carry a parent keep
// it.
func Correlate(tr *trace.Trace) {
	levels := tr.Levels()
	if len(levels) == 0 {
		return
	}
	correlateTree(tr, levels)
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
	// containment. The per-span queries (treeParents) are read-only once
	// the trees are built; the application below fills the correlation
	// table in trace order, which fixes the duplicate-correlation-id
	// tie-break.
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
	// correlation id; device-only records fall back to containment,
	// queried the same way.
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
