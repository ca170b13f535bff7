package core

import (
	"fmt"

	"xsp/internal/framework"
	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// Application profiles a whole application above the model level — the
// paper's Section III-E: "adding an application profiling level above the
// model level to measure whole applications (possibly distributed and
// using more than one ML model) is naturally supported by XSP as it uses
// distributed tracing". Every prediction profiled into the application
// shares one virtual timeline and one tracing server, and nests under one
// application span.
type Application struct {
	name      string
	clock     *vclock.Clock
	collector *trace.Memory
	tracer    *trace.Tracer
	root      *trace.Span
	finished  bool
}

// NewApplication opens an application span at virtual time zero.
func NewApplication(name string) *Application {
	app := &Application{
		name:      name,
		clock:     vclock.New(0),
		collector: trace.NewMemory(),
	}
	app.tracer = trace.NewTracer("xsp-app", trace.LevelApplication, app.collector)
	app.root = app.tracer.StartSpan(name, 0)
	return app
}

// Profile runs one model prediction inside the application: it continues
// the application's timeline and parents the model-level spans under the
// application span. Different predictions may use different sessions
// (different models, frameworks, or even systems — e.g. a detection model
// feeding a classifier).
//
// A run whose first attempt is ambiguous profiles speculatively outside
// the shared collector, so the abandoned attempt never appears in the
// application trace. On that common unambiguous path the returned
// Result's Trace covers just this prediction's spans; a serialized re-run
// profiles into the shared collector and returns its full view. Either
// way, the authoritative application timeline — every prediction under
// the application root, each exactly once — comes from Finish.
func (app *Application) Profile(s *Session, g *framework.Graph, opts Options) (*Result, error) {
	if app.finished {
		return nil, fmt.Errorf("core: application %q already finished", app.name)
	}
	return s.profile(g, opts, &env{clock: app.clock, collector: app.collector, appRoot: app.root})
}

// Idle advances the application's timeline without device work (request
// gaps, host-side business logic between model calls).
func (app *Application) Idle(d vclock.Duration) {
	if !app.finished {
		app.clock.Advance(d)
	}
}

// Finish closes the application span and returns the full application
// trace: one root, every prediction's hierarchy beneath it.
func (app *Application) Finish() *trace.Trace {
	if !app.finished {
		app.tracer.FinishSpan(app.root, app.clock.Now())
		app.finished = true
	}
	tr := app.collector.Trace()
	Correlate(tr)
	return tr
}
