package server

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"xsp/internal/trace"
	"xsp/internal/workload"
)

// A client that stops reading a large /api/correlated does not hold the
// request open: the reply's write deadline fails the write, the handler
// returns and lets go of the view, so Close — which waits for every request
// in flight — returns, and no segment file is left open.
func TestStalledReaderHitsTheReplyDeadline(t *testing.T) {
	defer func(d time.Duration) { replyDeadline = d }(replyDeadline)
	replyDeadline = time.Second

	dir := t.TempDir()
	s := newServer(t, testConfig(dir))
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace:     workload.SyntheticSpec{Spans: 200_000, Streams: 1, Seed: 5},
		BatchSize: 4_096, ReorderSkew: 12, Seed: 6,
	})
	for i, b := range batches {
		if rec := post(s, "", uint64(i+1), b); rec.Code != http.StatusAccepted {
			t.Fatalf("batch %d: %d %s", i+1, rec.Code, rec.Body)
		}
		if i%8 == 7 {
			do(s, http.MethodPost, "/api/checkpoint", "", nil, nil)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg")); len(segs) == 0 {
		t.Fatal("no segment file to pin")
	}

	ts := httptest.NewServer(s)
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /api/correlated HTTP/1.1\r\nHost: xsp\r\nAccept: "+trace.ContentTypeBinary+"\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// The client reads the status line — or finds the connection closed,
	// where a slow build (-race) spends the whole deadline on the view's
	// first pass, before the reply's first byte — and then reads no
	// further, keeping the connection up.
	if status, err := bufio.NewReader(conn).ReadString('\n'); err != io.EOF && !strings.Contains(status, "200") {
		t.Fatalf("reply status %q: %v", status, err)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close still waits for the stalled reply 10 s on: the reply has no write deadline")
	}
	if runtime.GOOS == "linux" {
		fds, _ := os.ReadDir("/proc/self/fd")
		for _, fd := range fds {
			if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(target, dir) {
				t.Errorf("fd %s still open on %s", fd.Name(), target)
			}
		}
	}
}
