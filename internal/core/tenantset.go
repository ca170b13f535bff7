package core

import (
	"fmt"

	"xsp/internal/segio"
	"xsp/internal/trace"
)

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
