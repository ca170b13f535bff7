// The API only the benchmark's replica (bench/replica.go) calls. The
// benchmark's code is frozen, so these names stay while it compiles against
// them; each is a thin adapter over the product path, which never names
// them (TestCompatQuarantine in unusedapi_test.go holds it to that):
//
//   - TenantSet, TenantSetOptions, NewTenantSet, TenantSet.Stream and
//     TenantSet.Keys: a Table of OpenTenantStream results;
//   - TenantStream, OpenTenantStream and the accessors Correlator, Store,
//     Recovery and Err: OpenStream's four results as one value;
//   - TenantStream.Publish and IngestLogged: the stream as a tap and as a
//     trace.DurableSink.
//
// A field cannot leave its struct, so this one stays where it is and is
// compat all the same:
//
//	StreamOptions.Isolated  Feed copies every span's header first
//
// Isolated makes Feed copy every span's header (trace.CloneHeaders) before
// using it, so the correlator's parent links never write into spans a
// concurrent reader (or the publishing tracer) still holds. The copy shares
// the payload, which is immutable once published. The replica sets it
// because its tenants keep a raw Memory beside the correlator; xsp-server's
// correlator is the only holder of its spans.

package core

import (
	"xsp/internal/segio"
	"xsp/internal/trace"
)

// TenantStream is one tenant's stream: OpenStream's results.
type TenantStream struct {
	sc    *StreamCorrelator
	store *segio.Store
	rec   *segio.Recovery
	err   error
}

// OpenTenantStream is OpenStream, its results held as one value.
func OpenTenantStream(key string, opts StreamOptions, open func() (*segio.Store, *segio.Recovery, error)) *TenantStream {
	st := &TenantStream{}
	st.sc, st.store, st.rec, st.err = OpenStream(key, opts, open)
	return st
}

// Correlator returns the tenant's streaming correlator.
func (st *TenantStream) Correlator() *StreamCorrelator { return st.sc }

// Store returns the tenant's durable store, nil when it runs RAM-only.
func (st *TenantStream) Store() *segio.Store { return st.store }

// Recovery returns what the tenant's recovery found, nil without a store.
func (st *TenantStream) Recovery() *segio.Recovery { return st.rec }

// Err returns the open or recovery error that degraded the tenant to
// RAM-only, or nil.
func (st *TenantStream) Err() error { return st.err }

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
