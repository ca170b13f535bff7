package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"xsp/internal/vclock"
)

// wireSpan is the JSON wire representation of a span, used by the HTTP
// tracing server and for persisting traces to disk.
type wireSpan struct {
	ID            uint64             `json:"id"`
	ParentID      uint64             `json:"parent_id,omitempty"`
	Level         int                `json:"level"`
	Kind          string             `json:"kind,omitempty"`
	Name          string             `json:"name"`
	Source        string             `json:"source,omitempty"`
	Begin         int64              `json:"begin_ns"`
	End           int64              `json:"end_ns"`
	CorrelationID uint64             `json:"correlation_id,omitempty"`
	Tags          map[string]string  `json:"tags,omitempty"`
	Metrics       map[string]float64 `json:"metrics,omitempty"`
}

// toWire builds the JSON form: tags and metrics as objects, which
// encoding/json writes sorted by key. A repeated key shows once, with the
// value Tag and Metric read.
func toWire(s *Span) wireSpan {
	var tags map[string]string
	if len(s.Tags) > 0 {
		tags = make(map[string]string, len(s.Tags))
		for _, t := range s.Tags {
			tags[t.Key] = t.Value
		}
	}
	var metrics map[string]float64
	if len(s.Metrics) > 0 {
		metrics = make(map[string]float64, len(s.Metrics))
		for _, m := range s.Metrics {
			metrics[m.Key] = m.Value
		}
	}
	return wireSpan{
		ID:            s.ID,
		ParentID:      s.ParentID,
		Level:         int(s.Level),
		Kind:          s.Kind.String(),
		Name:          s.Name,
		Source:        s.Source,
		Begin:         int64(s.Begin),
		End:           int64(s.End),
		CorrelationID: s.CorrelationID,
		Tags:          tags,
		Metrics:       metrics,
	}
}

// fromWire fills s (typically arena-allocated) from its wire form,
// interning the heavily repeated name/source strings through in so a
// decoded batch retains one canonical copy per distinct string. A JSON
// object has no order, so tags and metrics come out sorted by key.
func fromWire(s *Span, w wireSpan, in *Interner) error {
	var kind Kind
	switch w.Kind {
	case "", "sync":
		kind = KindSync
	case "launch":
		kind = KindLaunch
	case "exec":
		kind = KindExec
	default:
		return fmt.Errorf("trace: unknown span kind %q", w.Kind)
	}
	*s = Span{
		ID:            w.ID,
		ParentID:      w.ParentID,
		Level:         Level(w.Level),
		Kind:          kind,
		Name:          in.Intern(w.Name),
		Source:        in.Intern(w.Source),
		Begin:         vclock.Time(w.Begin),
		End:           vclock.Time(w.End),
		CorrelationID: w.CorrelationID,
	}
	if len(w.Tags) > 0 {
		s.Tags = make([]Tag, 0, len(w.Tags))
		for k, v := range w.Tags {
			s.Tags = append(s.Tags, Tag{k, v})
		}
		slices.SortFunc(s.Tags, func(a, b Tag) int { return strings.Compare(a.Key, b.Key) })
	}
	if len(w.Metrics) > 0 {
		s.Metrics = make([]Metric, 0, len(w.Metrics))
		for k, v := range w.Metrics {
			s.Metrics = append(s.Metrics, Metric{k, v})
		}
		slices.SortFunc(s.Metrics, func(a, b Metric) int { return strings.Compare(a.Key, b.Key) })
	}
	return nil
}

// wireEnvelope is the JSON wire form of a tenant-tagged batch: the spans
// wrapped in an object naming their tenant. Tenantless traces stay bare
// arrays (the historical format), so old readers and writers keep
// interoperating; DecodeJSON accepts both.
type wireEnvelope struct {
	Tenant string     `json:"tenant"`
	Spans  []wireSpan `json:"spans"`
}

// EncodeJSON writes the trace to w as JSON: a bare array of spans when
// the trace's Tenant is the zero value (byte-compatible with the
// pre-tenant format), otherwise a {"tenant": ..., "spans": [...]}
// envelope.
func (t *Trace) EncodeJSON(w io.Writer) error {
	wire := make([]wireSpan, len(t.Spans))
	for i, s := range t.Spans {
		wire[i] = toWire(s)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if tenant := t.Tenant; tenant != "" && tenant != DefaultTenant {
		return enc.Encode(wireEnvelope{Tenant: tenant, Spans: wire})
	}
	return enc.Encode(wire)
}

// DecodeJSON reads JSON spans written by EncodeJSON — a bare span array
// (tenantless, the historical wire) or the tenant envelope. Like
// DecodeBinary, the decoded spans are carved from a fresh arena with
// interned name/source strings, so a batch costs O(1) span allocations.
func DecodeJSON(r io.Reader) (*Trace, error) {
	var raw json.RawMessage
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("trace: decoding spans: %w", err)
	}
	var wire []wireSpan
	var tenant string
	if isJSONObject(raw) {
		var env wireEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			return nil, fmt.Errorf("trace: decoding span envelope: %w", err)
		}
		if err := ValidateTenant(env.Tenant); err != nil {
			return nil, err
		}
		tenant, wire = env.Tenant, env.Spans
	} else if err := json.Unmarshal(raw, &wire); err != nil {
		return nil, fmt.Errorf("trace: decoding spans: %w", err)
	}
	var st SpanStore
	var in Interner
	t := &Trace{Spans: make([]*Span, 0, len(wire)), Tenant: tenant}
	for _, w := range wire {
		s := st.Alloc()
		if err := fromWire(s, w, &in); err != nil {
			return nil, err
		}
		t.Spans = append(t.Spans, s)
	}
	t.SortByBegin()
	return t, nil
}

// isJSONObject reports whether a raw JSON value is an object — the
// envelope form — rather than the historical bare array.
func isJSONObject(raw json.RawMessage) bool {
	for _, c := range raw {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		}
		return c == '{'
	}
	return false
}
