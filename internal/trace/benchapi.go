// The API only the benchmark's replica (bench/replica.go) calls. The
// benchmark's code is frozen, so these names stay while it compiles against
// them; each is a thin adapter over the product path, which never names
// them (TestCompatQuarantine in unusedapi_test.go holds it to that):
//
//   - NewServer, SetTenantInit, Tenant and Tenants: a Server that owns its
//     tenant table, a Table of ServerTenants each wired by the init hook and
//     holding its spans in a Memory, plus its own /api/reset;
//   - ServerTenant.SetTap, SetTapAsync and SetDurable, with DurableSink:
//     the init hook's wiring of a NewServer tenant's consumer (hooks), a
//     durable sink, the Memory and a tap, in that order;
//   - ServerTenant.Collector: an in-process publish onto an accepted POST's
//     path;
//   - ServerTenant.SetLoad and ShedBlock: inert, admission reads only the
//     in-flight budgets and the tap has one policy.
//
// Fields cannot leave their structs, so these stay where they are and are
// compat all the same:
//
//	TapOptions.Policy      ignored
//	AsyncTapStats.Dropped  always zero: the tap never sheds

package trace

import "net/http"

// NewServer returns a tracing server that owns its tenants: each is built
// on first use, keeps the spans it accepts in a Memory that /api/trace
// serves, and is wired by the SetTenantInit hook before any request reaches
// it. POST /api/reset clears the addressed tenant.
func NewServer() *Server {
	s := newServer()
	s.SetTenantInit(nil)
	s.mux.HandleFunc("/api/reset", s.handleReset)
	return s
}

// SetTenantInit gives s a fresh table of its own, whose every tenant init
// wires before any request can reach it. The hook runs with the table
// locked: it must not call Tenant. Install it before the first tenant is
// touched: the table it replaces is dropped, tenants and all.
func (s *Server) SetTenantInit(init func(*ServerTenant)) {
	route(s, NewTable(func(key string) *ServerTenant {
		t := s.NewTenant(key, &hooks{mem: NewMemory()})
		if init != nil {
			init(t)
		}
		return t
	}), func(t *ServerTenant) *ServerTenant { return t })
}

// Tenant returns the named tenant's ingest half, opening the tenant on
// first use. The empty key canonicalizes to DefaultTenant; a key failing
// ValidateTenant returns nil.
func (s *Server) Tenant(key string) *ServerTenant {
	if ValidateTenant(key) != nil {
		return nil
	}
	return s.ingest(key, true)
}

// Tenants returns every tenant's key, in creation order.
func (s *Server) Tenants() []string { return s.keys() }

// handleReset clears exactly the tenant the request addresses (X-Tenant /
// ?tenant=, default when absent) — never its neighbors. Resetting a
// tenant that does not exist yet is a no-op 204: it is already empty.
func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	key, err := RequestTenant(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if tn := s.ingest(key, false); tn != nil {
		tn.Reset()
		tn.c.(*hooks).mem.Reset()
	}
	w.WriteHeader(http.StatusNoContent)
}

// Collector returns the tenant's in-process collector: a publish takes an
// accepted POST's path to the consumers. A batch the durable sink refuses
// is dropped, as core.StreamCorrelator.Feed drops it.
func (t *ServerTenant) Collector() Collector { return tenantCollector{t} }

type tenantCollector struct{ t *ServerTenant }

func (c tenantCollector) Publish(spans ...*Span) {
	if len(spans) > 0 {
		_ = c.t.c.Ingest(0, spans, nil)
	}
}

// hooks is a NewServer tenant's Consumer: the durable sink first, when one
// is set — its error refuses the batch, nothing after it sees it — then the
// Memory /api/trace serves, then the tap. The init hook sets its fields
// before the table lists the tenant; nothing changes them while a request
// can reach it.
type hooks struct {
	durable DurableSink
	mem     *Memory
	tap     Collector
	queue   *AsyncTap // SetTapAsync's queue, the Backlog
}

func (h *hooks) Ingest(batchID uint64, spans []*Span, _ []byte) error {
	if h.durable != nil {
		if err := h.durable.IngestLogged(batchID, spans); err != nil {
			return err
		}
	}
	h.mem.Publish(spans...)
	if h.tap != nil {
		h.tap.Publish(spans...)
	}
	return nil
}

func (h *hooks) Backlog() int {
	if h.queue == nil {
		return 0
	}
	return h.queue.Depth()
}

func (h *hooks) View() View { return spansView(h.mem.Trace().Spans) }

// DurableSink is a consumer with an acknowledgment barrier: IngestLogged
// makes the batch durable (fsynced to a write-ahead log) before returning
// nil. A non-nil error refuses the batch retryably.
type DurableSink interface {
	IngestLogged(batchID uint64, spans []*Span) error
}

// SetDurable makes d the sink every accepted batch of this NewServer tenant
// reaches before anything else, and before its 202; nil detaches.
func (t *ServerTenant) SetDurable(d DurableSink) { t.c.(*hooks).durable = d }

// SetTap makes c the collector every batch this NewServer tenant accepts
// reaches last, after its Memory; nil detaches.
func (t *ServerTenant) SetTap(c Collector) { t.c.(*hooks).tap = c }

// SetTapAsync sets dst as the tap behind an AsyncTap, whose queue depth is
// the tenant's Backlog from here on even if a later SetTap wraps it, and
// returns the tap for its owner to close.
func (t *ServerTenant) SetTapAsync(dst Collector, opts TapOptions) *AsyncTap {
	tap := NewAsyncTap(dst, opts)
	t.c.(*hooks).queue = tap
	t.SetTap(tap)
	return tap
}

// SetLoad ignores its argument.
func (t *ServerTenant) SetLoad(any) {}

// ShedBlock is the one TapOptions.Policy: at its bound the tap waits.
const ShedBlock = 0

// spansView is the view of spans, which must be in canonical order.
func spansView(spans []*Span) View {
	return View{Walk: func(yield func(*SpanBlock, int, *Span) bool) {
		for _, s := range spans {
			if !yield(nil, 0, s) {
				return
			}
		}
	}}
}
