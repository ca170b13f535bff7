package core

import (
	"fmt"
	"runtime"
	"sync"

	"xsp/internal/segio"
	"xsp/internal/trace"
)

// TenantSetOptions configures a TenantSet.
type TenantSetOptions struct {
	// Stream is the option template every tenant's correlator is built
	// from. Its Store field is ignored — durability is wired per tenant
	// through OpenStore, which is what keeps one tenant's WAL, segments,
	// and quarantine in its own directory.
	Stream StreamOptions

	// InitStream, when non-nil, customizes one tenant's stream options at
	// creation time, before the correlator is built — and, crucially,
	// before RecoverStream replays the tenant's durable state — so a
	// per-tenant StreamOptions.Observer (an analysis.Online engine, say)
	// sees recovered history too. The returned options' Store field is
	// ignored; durability stays wired through OpenStore.
	InitStream func(tenant string, opts StreamOptions) StreamOptions

	// OpenStore opens (or creates) the named tenant's durable store and
	// returns what segio recovered from it; the tenant's correlator is
	// then rebuilt with RecoverStream, so every tenant's checkpoint ladder
	// and dedup window comes back independently after a crash. Nil runs
	// every tenant RAM-only. An OpenStore or recovery error does not fail
	// tenant creation: the tenant degrades to a RAM-only correlator and
	// the error is surfaced through TenantStream.Err — the same
	// keep-ingesting posture as StreamCorrelator.DurabilityErr.
	OpenStore func(tenant string) (*segio.Store, *segio.Recovery, error)
}

// TenantSet owns one streaming correlator per tenant key, created lazily
// on first use — the core-side counterpart of trace.Server's tenant
// table. Distinct tenants share nothing but the worker pool: separate
// correlators (separate locks, separate reorder windows, separate
// checkpoint ladders), separate durable stores, separate pressure
// signals. Feeds for distinct tenants therefore run in parallel across
// cores, while each tenant keeps the exact single-stream semantics of its
// own StreamCorrelator.
type TenantSet struct {
	opts TenantSetOptions

	// sem is the worker pool, GOMAXPROCS slots: each Publish/IngestLogged
	// holds one while its correlator consumes the batch. Within one tenant
	// the correlator's own mutex serializes feeds, so per-tenant arrival
	// order (and the reorder window's meaning) is untouched; the pool only
	// caps cross-tenant parallelism so a many-tenant burst cannot run the
	// process out of scheduler headroom.
	sem chan struct{}

	mu      sync.RWMutex
	streams map[string]*TenantStream
	keys    []string // creation order, for stable iteration
}

// NewTenantSet returns an empty set; tenants materialize on first
// Stream call.
func NewTenantSet(opts TenantSetOptions) *TenantSet {
	opts.Stream.Store = nil
	return &TenantSet{opts: opts, sem: make(chan struct{}, runtime.GOMAXPROCS(0))}
}

// TenantStream is one tenant's slice of a TenantSet: its correlator, its
// durable store (when the set opens stores), and what recovery found in
// it. It implements trace.Collector, trace.DurableSink, and
// trace.LoadReporter, so it can be handed to a ServerTenant's tap,
// durable-sink, and load hooks directly.
type TenantStream struct {
	set *TenantSet
	key string

	sc    *StreamCorrelator
	store *segio.Store
	rec   *segio.Recovery
	err   error // OpenStore/recovery failure; the stream runs RAM-only past it
}

// Stream returns the named tenant's stream, creating (and, with OpenStore
// set, recovering) it on first use. The empty key canonicalizes to
// trace.DefaultTenant; an invalid key is an error.
func (ts *TenantSet) Stream(key string) (*TenantStream, error) {
	if err := trace.ValidateTenant(key); err != nil {
		return nil, err
	}
	key = trace.CanonicalTenant(key)
	ts.mu.RLock()
	st := ts.streams[key]
	ts.mu.RUnlock()
	if st != nil {
		return st, nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if st = ts.streams[key]; st != nil {
		return st, nil
	}
	st = &TenantStream{set: ts, key: key}
	opts := ts.opts.Stream
	if ts.opts.InitStream != nil {
		opts = ts.opts.InitStream(key, opts)
		opts.Store = nil
	}
	if ts.opts.OpenStore != nil {
		store, rec, err := ts.opts.OpenStore(key)
		if err == nil {
			opts.Store = store
			sc, rerr := RecoverStream(opts, rec)
			if rerr == nil {
				st.sc, st.store, st.rec = sc, store, rec
			} else {
				err = rerr
			}
		}
		if err != nil {
			// Degrade to RAM-only rather than refuse the tenant: ingest
			// stays available and the error is inspectable, exactly like a
			// durability error latching mid-stream.
			st.err = fmt.Errorf("core: tenant %q durable store: %w", key, err)
		}
	}
	if st.sc == nil {
		opts.Store = nil
		st.sc = NewStreamCorrelator(opts)
	}
	if ts.streams == nil {
		ts.streams = make(map[string]*TenantStream)
	}
	ts.streams[key] = st
	ts.keys = append(ts.keys, key)
	return st, nil
}

// Lookup returns the named tenant's stream only if it already exists.
func (ts *TenantSet) Lookup(key string) *TenantStream {
	key = trace.CanonicalTenant(key)
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return ts.streams[key]
}

// Keys returns every tenant key the set has created, in creation order.
func (ts *TenantSet) Keys() []string {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	out := make([]string, len(ts.keys))
	copy(out, ts.keys)
	return out
}

// Each calls fn for every existing tenant stream, in creation order.
func (ts *TenantSet) Each(fn func(*TenantStream)) {
	for _, key := range ts.Keys() {
		if st := ts.Lookup(key); st != nil {
			fn(st)
		}
	}
}

// Key returns the tenant's key.
func (st *TenantStream) Key() string { return st.key }

// Correlator returns the tenant's streaming correlator, for read-side
// endpoints (stats, snapshots, checkpoints) that address one tenant.
func (st *TenantStream) Correlator() *StreamCorrelator { return st.sc }

// Store returns the tenant's durable store, nil when the set (or this
// tenant, after a degrade) runs RAM-only.
func (st *TenantStream) Store() *segio.Store { return st.store }

// Recovery returns what segio recovered from the tenant's store at
// creation — the dedup ids to seed the server's window with, the
// recovered-state counts for observability — or nil without a store.
func (st *TenantStream) Recovery() *segio.Recovery { return st.rec }

// Err returns the OpenStore or recovery error that degraded this tenant
// to RAM-only, or nil. Errors latching later, mid-stream, surface through
// Correlator().DurabilityErr as before.
func (st *TenantStream) Err() error { return st.err }

// Publish feeds spans to the tenant's correlator under a worker slot,
// implementing trace.Collector — the tap target for a non-durable
// tenant.
func (st *TenantStream) Publish(spans ...*trace.Span) {
	st.set.sem <- struct{}{}
	defer func() { <-st.set.sem }()
	st.sc.Feed(spans...)
}

// IngestLogged feeds one batch through the tenant's durability barrier
// under a worker slot, implementing trace.DurableSink.
func (st *TenantStream) IngestLogged(batchID uint64, spans []*trace.Span) error {
	st.set.sem <- struct{}{}
	defer func() { <-st.set.sem }()
	return st.sc.FeedLogged(batchID, spans...)
}

// Pressure reports the tenant correlator's admission pressure,
// implementing trace.LoadReporter. No worker slot: the signal must stay
// readable while every slot is busy feeding.
func (st *TenantStream) Pressure() trace.Pressure { return st.sc.Pressure() }
