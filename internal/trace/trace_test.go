package trace

import (
	"bytes"
	"net/http/httptest"
	"sync"
	"testing"
	"testing/quick"

	"xsp/internal/vclock"
)

func TestLevelString(t *testing.T) {
	cases := map[Level]string{
		LevelApplication: "application",
		LevelModel:       "model",
		LevelLayer:       "layer",
		LevelLibrary:     "library",
		LevelKernel:      "kernel",
		Level(9):         "level(9)",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindSync.String() != "sync" || KindLaunch.String() != "launch" || KindExec.String() != "exec" {
		t.Fatal("Kind.String wrong")
	}
}

func TestSpanTagsAndMetrics(t *testing.T) {
	s := &Span{}
	s.SetTag("layer_type", "Conv2D")
	s.SetMetric("flop_count_sp", 1e9)
	if s.Tag("layer_type") != "Conv2D" {
		t.Error("tag not set")
	}
	if s.Metric("flop_count_sp") != 1e9 {
		t.Error("metric not set")
	}
	if s.Tag("missing") != "" || s.Metric("missing") != 0 {
		t.Error("missing lookups should be zero values")
	}
}

func TestSpanClone(t *testing.T) {
	s := &Span{ID: 1, Name: "a"}
	s.SetTag("k", "v")
	s.SetMetric("m", 2)
	c := s.Clone()
	c.SetTag("k", "changed")
	c.SetMetric("m", 3)
	if s.Tag("k") != "v" || s.Metric("m") != 2 {
		t.Fatal("Clone shares maps with original")
	}
}

func TestNewSpanIDUnique(t *testing.T) {
	const n = 1000
	seen := make(map[uint64]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				id := NewSpanID()
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate span id %d", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func newTestTrace() *Trace {
	return &Trace{Spans: []*Span{
		{ID: 1, Level: LevelModel, Name: "predict", Begin: 0, End: 100},
		{ID: 2, ParentID: 1, Level: LevelLayer, Name: "conv1", Begin: 5, End: 40},
		{ID: 3, ParentID: 1, Level: LevelLayer, Name: "relu1", Begin: 45, End: 60},
		{ID: 4, ParentID: 2, Level: LevelKernel, Name: "scudnn", Begin: 10, End: 35},
	}}
}

func TestTraceQueries(t *testing.T) {
	tr := newTestTrace()
	if got := tr.ByLevel(LevelLayer); len(got) != 2 || got[0].Name != "conv1" {
		t.Fatalf("ByLevel = %v", got)
	}
	if tr.Find("relu1") == nil || tr.Find("nope") != nil {
		t.Fatal("Find wrong")
	}
	if byID := tr.SpansByID(); byID[4] == nil || byID[99] != nil {
		t.Fatal("SpansByID wrong")
	}
	// Of spans sharing an ID, the first in Spans order is the one mapped.
	first := tr.Spans[1]
	tr.Spans = append(tr.Spans, &Span{ID: first.ID, Level: LevelLayer, Name: "dup-id"})
	if byID := tr.SpansByID(); len(byID) != 4 || byID[first.ID] != first {
		t.Fatalf("SpansByID with a duplicated ID: %d entries, span %d -> %v", len(byID), first.ID, byID[first.ID])
	}
	levels := tr.Levels()
	if len(levels) != 3 || levels[0] != LevelModel || levels[2] != LevelKernel {
		t.Fatalf("Levels = %v", levels)
	}
}

func TestSortByBegin(t *testing.T) {
	tr := &Trace{Spans: []*Span{
		{ID: 2, Level: LevelLayer, Begin: 5},
		{ID: 1, Level: LevelModel, Begin: 5},
		{ID: 3, Level: LevelKernel, Begin: 2},
	}}
	tr.SortByBegin()
	if tr.Spans[0].ID != 3 || tr.Spans[1].ID != 1 || tr.Spans[2].ID != 2 {
		t.Fatalf("sort order wrong: %v %v %v", tr.Spans[0].ID, tr.Spans[1].ID, tr.Spans[2].ID)
	}
}

func TestTracerLifecycle(t *testing.T) {
	mem := NewMemory()
	tr := NewTracer("framework", LevelLayer, mem)
	if tr.Source() != "framework" {
		t.Fatal("tracer identity wrong")
	}
	s := tr.StartSpan("conv", 10)
	tr.FinishSpan(s, 50)
	if mem.Len() != 1 {
		t.Fatalf("collected %d spans", mem.Len())
	}
	got := mem.Trace().Spans[0]
	if got.Name != "conv" || got.Begin != 10 || got.End != 50 || got.Level != LevelLayer {
		t.Fatalf("span = %+v", got)
	}
	if got.Duration() != 40 {
		t.Fatalf("Duration = %v", got.Duration())
	}
}

func TestMemoryReset(t *testing.T) {
	mem := NewMemory()
	mem.Publish(&Span{ID: 1})
	mem.Reset()
	if mem.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := newTestTrace()
	tr.Spans[3].Kind = KindExec
	tr.Spans[3].CorrelationID = 42
	tr.Spans[3].SetTag("grid", "[1,2,3]")
	tr.Spans[3].SetMetric("flop_count_sp", 6.2e10)

	var buf bytes.Buffer
	if err := tr.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != len(tr.Spans) {
		t.Fatalf("round trip lost spans: %d vs %d", len(got.Spans), len(tr.Spans))
	}
	k := got.SpansByID()[4]
	if k.Kind != KindExec || k.CorrelationID != 42 || k.Tag("grid") != "[1,2,3]" || k.Metric("flop_count_sp") != 6.2e10 {
		t.Fatalf("round trip mangled span: %+v", k)
	}
}

func TestDecodeJSONRejectsBadKind(t *testing.T) {
	bad := bytes.NewBufferString(`[{"id":1,"level":1,"kind":"bogus","name":"x","begin_ns":0,"end_ns":1}]`)
	if _, err := DecodeJSON(bad); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestHTTPServerRoundTrip(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	col := NewHTTPCollector(ts.URL)
	col.Publish(&Span{ID: 1, Level: LevelModel, Name: "predict", Begin: 0, End: 100})
	col.Publish(&Span{ID: 2, ParentID: 1, Level: LevelLayer, Name: "conv", Begin: 5, End: 50})
	n, err := col.Flush()
	if err != nil || n != 2 {
		t.Fatalf("Flush = %d, %v", n, err)
	}
	if srv.Tenant(DefaultTenant).Received() != 2 {
		t.Fatalf("server received %d", srv.Tenant(DefaultTenant).Received())
	}

	got, err := FetchTraceTenant(nil, ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 2 || got.Find("conv") == nil {
		t.Fatalf("fetched trace = %+v", got.Spans)
	}
}

func TestHTTPCollectorEmptyFlush(t *testing.T) {
	col := NewHTTPCollector("http://invalid.invalid")
	n, err := col.Flush()
	if n != 0 || err != nil {
		t.Fatalf("empty Flush = %d, %v", n, err)
	}
}

func TestServerMethodChecks(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/api/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET /api/spans = %d, want 405", resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/api/trace", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("POST /api/trace = %d, want 405", resp.StatusCode)
	}
}

func TestServerReset(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	srv.Tenant(DefaultTenant).Collector().Publish(&Span{ID: 1})
	resp, err := ts.Client().Post(ts.URL+"/api/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(srv.Tenant(DefaultTenant).View().Trace().Spans) != 0 {
		t.Fatal("reset did not clear trace")
	}
}

// Property: JSON round trip preserves every field for arbitrary spans.
func TestJSONRoundTripProperty(t *testing.T) {
	f := func(id, corr uint64, level uint8, begin, end int64, name string) bool {
		s := &Span{
			ID:            id,
			Level:         Level(level % 5),
			Kind:          KindLaunch,
			Name:          name,
			Begin:         vclock.Time(begin),
			End:           vclock.Time(end),
			CorrelationID: corr,
		}
		var buf bytes.Buffer
		if err := (&Trace{Spans: []*Span{s}}).EncodeJSON(&buf); err != nil {
			return false
		}
		got, err := DecodeJSON(&buf)
		if err != nil || len(got.Spans) != 1 {
			return false
		}
		g := got.Spans[0]
		return g.ID == s.ID && g.Level == s.Level && g.Kind == s.Kind &&
			g.Name == s.Name && g.Begin == s.Begin && g.End == s.End &&
			g.CorrelationID == s.CorrelationID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
