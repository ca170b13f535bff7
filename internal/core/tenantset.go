package core

import (
	"fmt"
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
	// creation time, before OpenTenantStream builds (and recovers) the
	// correlator — so a per-tenant StreamOptions.Observer sees recovered
	// history too. The returned options' Store field is ignored.
	InitStream func(tenant string, opts StreamOptions) StreamOptions

	// OpenStore opens (or creates) the named tenant's durable store: the
	// open argument of the tenant's OpenTenantStream call. Nil runs every
	// tenant RAM-only.
	OpenStore func(tenant string) (*segio.Store, *segio.Recovery, error)
}

// TenantSet is a keyed cache of OpenTenantStream results, created lazily
// on first use. The server does not use it — internal/server opens each
// tenant's stream itself, into its own per-tenant table; it is kept for
// bench/replica.go and this package's tests, and goes with the benchmark
// PR that re-bases the replica on server.New.
type TenantSet struct {
	opts TenantSetOptions

	mu      sync.RWMutex
	streams map[string]*TenantStream
	keys    []string // creation order, for stable iteration
}

// NewTenantSet returns an empty set; tenants materialize on first
// Stream call.
func NewTenantSet(opts TenantSetOptions) *TenantSet {
	return &TenantSet{opts: opts}
}

// TenantStream is one tenant's stream: its correlator, its durable store
// (when one was opened), and what recovery found in it. It implements
// trace.Collector and trace.DurableSink, so it can be handed to a
// ServerTenant's tap and durable-sink hooks directly. Distinct tenants'
// streams share nothing — separate correlators (locks, reorder windows,
// checkpoint ladders), separate stores — so their feeds, WAL fsyncs
// included, run in parallel, while each keeps the exact single-stream
// semantics of its own StreamCorrelator.
type TenantStream struct {
	key string

	sc    *StreamCorrelator
	store *segio.Store
	rec   *segio.Recovery
	err   error // open/recovery failure; the stream runs RAM-only past it
}

// OpenTenantStream builds the stream of the tenant named key from opts
// (whose Store field is ignored). With open non-nil it opens the tenant's
// durable store and rebuilds the correlator from it with RecoverStream —
// opts.Observer, attached before the replay, sees recovered history too —
// so every tenant's checkpoint ladder and dedup window comes back
// independently after a crash; nil runs the tenant RAM-only. An open or
// recovery error does not fail the tenant: it degrades to a RAM-only
// correlator and the error is surfaced through Err — the same
// keep-ingesting posture as StreamCorrelator.DurabilityErr.
func OpenTenantStream(key string, opts StreamOptions, open func() (*segio.Store, *segio.Recovery, error)) *TenantStream {
	st := &TenantStream{key: key}
	opts.Store = nil
	if open != nil {
		store, rec, err := open()
		if err == nil {
			opts.Store = store
			if st.sc, err = RecoverStream(opts, rec); err == nil {
				st.store, st.rec = store, releaseContent(rec)
			} else {
				store.Close() // it may hold the WAL a recovery rotated onto
			}
		}
		if err != nil {
			st.err = fmt.Errorf("core: tenant %q durable store: %w", key, err)
			opts.Store = nil
		}
	}
	if st.sc == nil {
		st.sc = NewStreamCorrelator(opts)
	}
	return st
}

// releaseContent drops what a recovery carried in for RecoverStream — the
// snapshot's live tail, the batches' spans, the segments' blocks (the
// correlator holds what it took of them) — and keeps what is read of it
// afterwards: how many segments and batch records there were, the dedup
// window, the quarantined files, the repair counters. A TenantStream holds
// its Recovery for the life of the process; the content would be a second
// copy of the recovered stream held just as long.
func releaseContent(rec *segio.Recovery) *segio.Recovery {
	rec.Snapshot = nil
	for i := range rec.Segments {
		rec.Segments[i].Block = trace.SpanBlock{}
	}
	for i := range rec.Batches {
		rec.Batches[i].Spans, rec.Batches[i].Owned = nil, nil
	}
	return rec
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
	opts := ts.opts.Stream
	if ts.opts.InitStream != nil {
		opts = ts.opts.InitStream(key, opts)
	}
	var open func() (*segio.Store, *segio.Recovery, error)
	if ts.opts.OpenStore != nil {
		open = func() (*segio.Store, *segio.Recovery, error) { return ts.opts.OpenStore(key) }
	}
	st = OpenTenantStream(key, opts, open)
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
// recovered-state counts for observability — or nil without a store. It is
// the report without the content: the segments and batch records are there
// to be counted, their spans and blocks are not (see releaseContent).
func (st *TenantStream) Recovery() *segio.Recovery { return st.rec }

// Err returns the OpenStore or recovery error that degraded this tenant
// to RAM-only, or nil. Errors latching later, mid-stream, surface through
// Correlator().DurabilityErr as before.
func (st *TenantStream) Err() error { return st.err }

// Publish feeds spans to the tenant's correlator, implementing
// trace.Collector — the tap target for a non-durable tenant.
func (st *TenantStream) Publish(spans ...*trace.Span) { st.sc.Feed(spans...) }

// IngestLogged feeds one batch through the tenant's durability barrier,
// implementing trace.DurableSink.
func (st *TenantStream) IngestLogged(batchID uint64, spans []*trace.Span) error {
	return st.sc.FeedLogged(batchID, spans...)
}

// Pressure returns trace.PressureNominal, implementing trace.LoadReporter.
// Kept for bench/replica.go; it goes with the benchmark PR.
func (st *TenantStream) Pressure() trace.Pressure { return trace.PressureNominal }
