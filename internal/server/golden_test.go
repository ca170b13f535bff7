package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xsp/internal/trace"
	"xsp/internal/workload"
)

// goldenV1 is a data directory in the version-1 on-disk format, checked in
// beside the replies a server recovered from it gave: a format change that
// leaves last release's -data-dir unrecoverable, or recovers it into other
// bytes, fails TestGoldenV1Recovers. XSP_WRITE_GOLDEN_V1=1 rebuilds both from
// the seed (see writeGoldenV1); nothing else writes them.
const goldenV1 = "../segio/testdata/golden-v1"

// goldenReplies are the reads TestGoldenV1Recovers compares, each with the
// file its expected bytes live in.
var goldenReplies = []struct {
	file, target, accept string
}{
	{"trace.json", "/api/trace", ""},
	{"correlated.xspb", "/api/correlated", trace.ContentTypeBinary},
	{"analysis.json", "/api/analysis", ""},
}

// TestGoldenV1Recovers boots a server over a copy of the golden directory —
// a WAL tail behind a snapshot, segment files, and one segment with a
// flipped bit that recovery must quarantine — and holds its three views to
// the bytes the build that wrote the directory served.
func TestGoldenV1Recovers(t *testing.T) {
	if os.Getenv("XSP_WRITE_GOLDEN_V1") != "" {
		writeGoldenV1(t)
	}
	dir := t.TempDir()
	copyDir(t, filepath.Join(goldenV1, "data"), dir)
	s := newServer(t, testConfig(dir))
	for _, r := range goldenReplies {
		want, err := os.ReadFile(filepath.Join(goldenV1, r.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := getAccept(t, s, r.target, r.accept); !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes recovered from the golden directory, want the %d of %s", r.target, len(got), len(want), r.file)
		}
	}
	d := stats(t, s).Tenants["default"]
	if d.Err != "" || d.Recovery == nil || len(d.Recovery.Quarantined) != 1 {
		t.Fatalf("golden recovery: err %q, recovery %+v, want exactly the one corrupt segment quarantined", d.Err, d.Recovery)
	}
}

// writeGoldenV1 rebuilds the golden directory: a seeded stream posted to a
// durable server and folded on demand after every batch from the 20th, the
// directory copied at the first batch past the 30th that finds four segment
// files — before that batch's fold, so the WAL ends in batch records behind
// its snapshot: what a SIGKILL there leaves, every acknowledged batch being
// fsynced — one bit flipped in the copy's oldest segment file, and the
// replies of a server recovered from the copy.
func writeGoldenV1(t *testing.T) {
	live := t.TempDir()
	s := newServer(t, testConfig(live))
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace:     workload.SyntheticSpec{Spans: 6_000, Streams: 1, Seed: 41},
		BatchSize: 128, ReorderSkew: 12, Seed: 42,
	})
	data := filepath.Join(goldenV1, "data")
	if err := os.RemoveAll(goldenV1); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, b := range batches {
		if rec := post(s, "", uint64(i+1), b); rec.Code != http.StatusAccepted {
			t.Fatalf("batch %d: %d %s", i+1, rec.Code, rec.Body)
		}
		if segs, _ := filepath.Glob(filepath.Join(live, "seg-*.seg")); i+1 > 30 && len(segs) >= 4 && names == nil {
			copyDir(t, live, data)
			names = segs
		}
		if i+1 >= 20 {
			if rec := do(s, http.MethodPost, "/api/checkpoint", "", nil, nil); rec.Code != http.StatusOK {
				t.Fatalf("checkpoint after batch %d: %d %s", i+1, rec.Code, rec.Body)
			}
		}
	}
	if names == nil {
		t.Fatalf("the stream never left four segment files past batch 30")
	}
	slices.Sort(names)
	oldest := filepath.Join(data, filepath.Base(names[0]))
	seg, err := os.ReadFile(oldest)
	if err != nil {
		t.Fatal(err)
	}
	seg[len(seg)/2] ^= 0x10
	if err := os.WriteFile(oldest, seg, 0o644); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	copyDir(t, data, dir)
	r := newServer(t, testConfig(dir))
	for _, g := range goldenReplies {
		if err := os.WriteFile(filepath.Join(goldenV1, g.file), getAccept(t, r, g.target, g.accept), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// getAccept is get with an Accept header.
func getAccept(t *testing.T, s http.Handler, target, accept string) []byte {
	t.Helper()
	rec := do(s, http.MethodGet, target, "", map[string]string{"Accept": accept}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", target, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// copyDir copies the regular files of src, one level deep, into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
