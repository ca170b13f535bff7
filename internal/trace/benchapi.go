// The API only the benchmark's replica (bench/replica.go) calls. The
// benchmark's code is frozen, so these names stay while it compiles against
// them; each is a thin adapter over the product path, which never names
// them (TestCompatQuarantine in unusedapi_test.go holds it to that):
//
//   - NewServer, SetTenantInit, Tenant and Tenants: a Server that owns its
//     tenant table, a Table of ServerTenants each wired by the init hook and
//     holding its spans in a Memory, plus its own /api/reset;
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
//
// ServerTenant.mem, unexported, is NewServer's too: nil in every tenant a
// NewServerOn table builds.

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
		mem := NewMemory()
		t := s.NewTenant(key, mem.Trace)
		t.mem = mem
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
		_ = c.t.publish(0, spans)
	}
}

// SetLoad ignores its argument.
func (t *ServerTenant) SetLoad(any) {}

// ShedBlock is the one TapOptions.Policy: at its bound the tap waits.
const ShedBlock = 0
