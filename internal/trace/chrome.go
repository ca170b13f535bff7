package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome Trace Event Format (the
// chrome://tracing and Perfetto JSON schema): complete ("X") events with
// microsecond timestamps.
type chromeEvent struct {
	Name     string         `json:"name"`
	Category string         `json:"cat"`
	Phase    string         `json:"ph"`
	TS       float64        `json:"ts"`  // microseconds
	Dur      float64        `json:"dur"` // microseconds
	PID      int            `json:"pid"`
	TID      int            `json:"tid"`
	Args     map[string]any `json:"args,omitempty"`
}

// EncodeChromeTrace writes the trace in Chrome Trace Event Format so it
// can be opened in chrome://tracing or Perfetto. Each stack level renders
// as its own thread row (model=1, layer=2, library=3, kernel launches=4,
// kernel executions=5), which visually reproduces the paper's Fig 1
// timeline.
func (t *Trace) EncodeChromeTrace(w io.Writer) error {
	events := make([]chromeEvent, 0, len(t.Spans))
	for _, s := range t.Spans {
		tid := int(s.Level) + 1
		if s.Kind == KindExec {
			tid++ // device rows sit below the host launch row
		}
		args := map[string]any{
			"span_id":   s.ID,
			"parent_id": s.ParentID,
			"source":    s.Source,
		}
		if s.CorrelationID != 0 {
			args["correlation_id"] = s.CorrelationID
		}
		for _, t := range s.Tags {
			args[t.Key] = t.Value
		}
		for _, m := range s.Metrics {
			args[m.Key] = m.Value
		}
		events = append(events, chromeEvent{
			Name:     s.Name,
			Category: s.Level.String() + "/" + s.Kind.String(),
			Phase:    "X",
			TS:       float64(s.Begin) / 1e3,
			Dur:      float64(s.Duration()) / 1e3,
			PID:      1,
			TID:      tid,
		})
		events[len(events)-1].Args = args
	}
	doc := struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		Metadata    map[string]any `json:"metadata"`
	}{
		TraceEvents: events,
		Metadata: map[string]any{
			"tool":            "xsp",
			"clock":           "virtual-ns",
			"displayTimeUnit": "ms",
		},
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("trace: encoding chrome trace: %w", err)
	}
	return nil
}
