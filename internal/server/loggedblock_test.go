package server

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"testing"

	"xsp/internal/segio"
	"xsp/internal/trace"
)

// A durable tenant's WAL logs a binary batch as the span block it arrived
// in. A tracer owns no link, so a frame whose records set the owned flag is
// acked with every flag cleared in its WAL record, and after a restart
// /api/trace serves the ParentIDs the tracer sent: recovery strips only
// owned links, and a kept flag would have lost them.
func TestLoggedBlockClearsOwnedFlags(t *testing.T) {
	cfg := testConfig(t.TempDir())
	spans := []*trace.Span{
		{ID: 1, Level: trace.LevelModel, Name: "predict", Begin: 0, End: 100},
		{ID: 2, ParentID: 1, Level: trace.LevelLayer, Name: "conv", Begin: 10, End: 50},
		{ID: 3, ParentID: 1, Level: trace.LevelKernel, Kind: trace.KindLaunch, Name: "k", Begin: 20, End: 30, CorrelationID: 7},
	}
	block := trace.AppendSpanBlock(nil, spans, func(int) bool { return true })
	frame := append(binary.LittleEndian.AppendUint32([]byte("XSPB\x01"), uint32(len(block))), block...)

	s := newServer(t, cfg)
	ts := httptest.NewServer(s)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/spans", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", trace.ContentTypeBinary)
	req.Header.Set("X-Batch-Id", "5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("a frame with owned records: %d, want 202", resp.StatusCode)
	}
	ts.Close()
	s.Close()

	fs, err := segio.DirFS(cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	st, rec, err := segio.Open(fs, segio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 1 || len(rec.Batches[0].Spans) != len(spans) || rec.Batches[0].BatchID != 5 {
		t.Fatalf("the WAL holds %d batch records, want the one acked batch of %d spans", len(rec.Batches), len(spans))
	}
	for i, s := range rec.Batches[0].Spans {
		if rec.Batches[0].Owned[i/64]&(1<<(i%64)) != 0 {
			t.Errorf("the WAL record of span %d keeps its owned flag", s.ID)
		}
	}
	for _, seg := range rec.Segments {
		seg.File.Close()
	}
	st.Close()

	s = newServer(t, cfg)
	ts = httptest.NewServer(s)
	defer ts.Close()
	resp, err = http.Get(ts.URL + "/api/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := trace.DecodeJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != len(spans) {
		t.Fatalf("/api/trace after a restart holds %d spans, want %d", len(got.Spans), len(spans))
	}
	for i, s := range got.Spans {
		if s.ID != spans[i].ID || s.ParentID != spans[i].ParentID {
			t.Errorf("/api/trace after a restart: span %d with ParentID %d, the tracer sent span %d with %d", s.ID, s.ParentID, spans[i].ID, spans[i].ParentID)
		}
	}
}
