package trace

import (
	"fmt"
	"slices"
	"sync"
)

// Tenant keys partition one tracing server into independent ingest
// domains: each tenant gets its own collector, received count, batch-dedup
// window, tap, and (behind the server) its own streaming correlator and
// durable state. The key travels three ways, strongest first:
//
//   - the X-Tenant request header (TenantHeader), set by HTTPCollector
//     when a tenant is configured — known before the body is decoded, so
//     admission and dedup run against the right tenant without touching
//     the payload;
//   - the wire batch itself (the binary frame's tenant header field, or
//     the JSON envelope's "tenant" member), for span batches that travel
//     as files or through intermediaries that drop headers;
//   - nothing at all — the zero value — which routes to DefaultTenant
//     with semantics identical to the pre-tenant server, so every old
//     collector and every PR-8-era frame keeps working unchanged.
//
// Keys double as on-disk directory names for per-tenant durable state, so
// the charset is deliberately narrow: letters, digits, '.', '_', '-',
// no leading dot, at most MaxTenantLen bytes. ValidateTenant is enforced
// at every ingress (server routing, HTTPCollector.SetTenant), which is
// what lets the storage layer trust the key.

const (
	// DefaultTenant is the tenant every request and frame without an
	// explicit key routes to. Its semantics — endpoints, admission,
	// durability layout — are exactly the pre-tenant single-process
	// behavior.
	DefaultTenant = "default"

	// TenantHeader is the HTTP request header carrying the tenant key on
	// /api/* requests. Absent or empty means DefaultTenant (unless the
	// decoded batch itself names a tenant).
	TenantHeader = "X-Tenant"

	// MaxTenantLen bounds a tenant key's length in bytes.
	MaxTenantLen = 64
)

// CanonicalTenant maps the wire's zero value ("") to DefaultTenant and
// returns every other key unchanged.
func CanonicalTenant(key string) string {
	if key == "" {
		return DefaultTenant
	}
	return key
}

// ValidateTenant checks a tenant key against the key rules: 1 to
// MaxTenantLen bytes of [A-Za-z0-9._-], not starting with '.'. The empty
// string is valid (it canonicalizes to DefaultTenant). The rules make a
// key directly usable as a filesystem directory name — no separators, no
// "..", nothing hidden — so per-tenant durable stores need no escaping.
func ValidateTenant(key string) error {
	if key == "" {
		return nil
	}
	if len(key) > MaxTenantLen {
		return fmt.Errorf("trace: tenant key longer than %d bytes", MaxTenantLen)
	}
	if key[0] == '.' {
		return fmt.Errorf("trace: tenant key %q starts with '.'", key)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("trace: tenant key %q has invalid byte %q (want [A-Za-z0-9._-])", key, c)
		}
	}
	return nil
}

// Table is a tenant table: one value per tenant key, listed in creation
// order. Open builds a tenant once, with the table's open function, before
// it is inserted, so no reader ever sees one half built; Lookup and Keys
// never build one. Nothing is removed: a key, once listed, stays.
type Table[T any] struct {
	open func(key string) T

	mu   sync.RWMutex
	m    map[string]T
	keys []string
}

// NewTable returns an empty table whose tenants open builds. open runs with
// the table locked, so it must not call back into the table.
func NewTable[T any](open func(key string) T) *Table[T] {
	return &Table[T]{open: open, m: map[string]T{}}
}

// Open returns the tenant named key, building it on first use. The empty
// key canonicalizes to DefaultTenant; any other must pass ValidateTenant.
func (tb *Table[T]) Open(key string) T {
	key = CanonicalTenant(key)
	if v, ok := tb.Lookup(key); ok {
		return v
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if v, ok := tb.m[key]; ok {
		return v
	}
	v := tb.open(key)
	tb.m[key] = v
	tb.keys = append(tb.keys, key)
	return v
}

// Lookup returns the tenant named key and whether it exists.
func (tb *Table[T]) Lookup(key string) (T, bool) {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	v, ok := tb.m[CanonicalTenant(key)]
	return v, ok
}

// Keys returns every tenant's key, in creation order.
func (tb *Table[T]) Keys() []string {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	return slices.Clone(tb.keys)
}
