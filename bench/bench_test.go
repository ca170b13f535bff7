package bench

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"

	"xsp/internal/segio/faultfs"
	"xsp/internal/trace"
)

// TestSmoke runs all four workloads, traced, at a hundredth of their size
// through the real binary and the replica, and holds the output to the
// contract: every name BENCHMARK.json lists is emitted exactly once with
// its unit and a finite value, and nothing fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns xsp-server")
	}
	root, err := RepoRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	contract := BenchmarkContract()
	onDisk, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(onDisk, &want); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	generated, _ := json.Marshal(contract)
	_ = json.Unmarshal(generated, &got)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("BENCHMARK.json differs from `xspbench -print-contract`; regenerate it")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as xspbench runs
	computed := make(map[string]bool)               // a name no workload ever computes is a typo
	cfg := Config{Root: root, BuildDir: t.TempDir(), Seed: 42, Seconds: RunSeconds, Scale: 0.01, Trace: true}
	for _, w := range Workloads {
		res, err := Run(cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Errors)
		}
		for _, traced := range []bool{false, true} {
			res.Trace = traced
			line, err := ContractLine(res)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			var out struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("%s: contract line: %v", w.Name, err)
			}
			defs := contract.EndToEnd
			if traced {
				defs = contract.PerLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, contract lists %d", w.Name, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.Name]
				switch {
				case !nameRE.MatchString(d.Name):
					t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, contract says %q", w.Name, d.Name, m.Unit, d.Unit)
				case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
					t.Errorf("%s: %s has no finite value", w.Name, d.Name)
				case !traced && *m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, d.Name, *m.Value)
				}
				if _, ok := res.Values[d.Name]; ok {
					computed[d.Name] = true
				}
			}
		}
		if _, err := os.Stat(res.TraceFile); err != nil {
			t.Errorf("%s: traced run not saved: %v", w.Name, err)
		}
	}
	for _, defs := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range defs {
			if !computed[d.Name] {
				t.Errorf("%s is listed but no workload computes it", d.Name)
			}
		}
	}
	if left, _ := os.ReadDir(filepath.Join(cfg.BuildDir, "data")); len(left) != 0 {
		t.Errorf("%d data directories left behind", len(left))
	}
}

// replicaTarget wires a replica for w and returns it as a load target.
func replicaTarget(t *testing.T, w Workload) (*Replica, Target) {
	t.Helper()
	rec := NewRecorder()
	root := rec.Begin("bench", w.Name, DepthRun, 0, 0)
	rp := NewReplica(w, t.TempDir(), rec, root)
	t.Cleanup(rp.Close)
	transport := &http.Transport{}
	t.Cleanup(transport.CloseIdleConnections)
	return rp, Target{BaseURL: rp.BaseURL(), Transport: transport, Rec: rec, Root: root}
}

// A batch that lands on the wrong tenant must show up as a failed check:
// each tenant's observed count is compared with what that tenant sent.
func TestWrongTenantFailsCheck(t *testing.T) {
	w, _ := WorkloadByName("ram_pipelined_2t")
	inputs := Generate(w, 7, 4*BatchSpans)
	_, tgt := replicaTarget(t, w)

	stray := trace.NewHTTPCollector(tgt.BaseURL)
	if err := stray.SetTenant("t1"); err != nil {
		t.Fatal(err)
	}
	stray.Publish(inputs[0].Materialize(1)...) // t0's first batch, sent as t1
	if _, err := stray.Flush(); err != nil {
		t.Fatal(err)
	}

	res := &Result{Values: map[string]float64{}}
	checkLoad(res, w, RunLoad(w, inputs, tgt, 3))
	if res.Failed == 0 {
		t.Fatalf("a batch on the wrong tenant went unnoticed: %d checks, none failed", res.Attempted)
	}
	t.Logf("failed as it should: %v", res.Errors)
}

// dropOne acknowledges one POST without delivering it.
type dropOne struct {
	inner   http.RoundTripper
	dropped bool
}

func (d *dropOne) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && !d.dropped {
		d.dropped = true
		return &http.Response{StatusCode: http.StatusAccepted, Body: http.NoBody, Header: http.Header{}, Request: req}, nil
	}
	return d.inner.RoundTrip(req)
}

// An acknowledged batch the server never saw must fail the span-count and
// memcpy checks; the same load undisturbed must pass them all.
func TestLostBatchFailsCheck(t *testing.T) {
	w, _ := WorkloadByName("ram_nested")
	inputs := Generate(w, 7, 4*BatchSpans)
	for _, lose := range []bool{false, true} {
		_, tgt := replicaTarget(t, w)
		if lose {
			tgt.Transport = &dropOne{inner: tgt.Transport}
		}
		res := &Result{Values: map[string]float64{}}
		checkLoad(res, w, RunLoad(w, inputs, tgt, 6))
		if lose == (res.Failed == 0) {
			t.Errorf("lose=%v: %d of %d checks failed: %v", lose, res.Failed, res.Attempted, res.Errors)
		}
	}
}

// The replay must hand out exactly the stream Materialize describes, over
// repetition boundaries, with ids and clock shifted past each repetition.
func TestReplayMatchesMaterialize(t *testing.T) {
	w, _ := WorkloadByName("ram_pipelined_2t")
	in := Generate(w, 3, 4*BatchSpans)[0]
	n := 2*len(in.Batches) + 2
	want := in.Materialize(n)
	r := NewReplay(in)
	seen := make(map[uint64]bool)
	i := 0
	var lastRepEnd int64
	for b := 0; b < n; b++ {
		for _, s := range r.Next() {
			if s.ID != want[i].ID || s.Begin != want[i].Begin || s.End != want[i].End || s.CorrelationID != want[i].CorrelationID {
				t.Fatalf("batch %d: replay span %+v, materialized %+v", b, *s, *want[i])
			}
			if seen[s.ID] {
				t.Fatalf("span id %d handed out twice", s.ID)
			}
			seen[s.ID] = true
			if b >= len(in.Batches) && b < 2*len(in.Batches) && int64(s.Begin) < lastRepEnd {
				t.Fatalf("repetition 2 span begins at %d, before repetition 1 ended at %d", s.Begin, lastRepEnd)
			}
			if b < len(in.Batches) {
				lastRepEnd = max(lastRepEnd, int64(s.End))
			}
			i++
		}
	}
	if r.Spans != len(want) {
		t.Fatalf("replay counted %d spans, materialized %d", r.Spans, len(want))
	}
}

func TestTimingFSCounts(t *testing.T) {
	fs := NewTimingFS(faultfs.New(), nil, nil)
	write := func(name string, create bool, n int) {
		t.Helper()
		open := fs.OpenAppend
		if create {
			open = fs.Create
		}
		f, err := open(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// A rotation, two appended batches, a segment and its compaction.
	write("wal-0000000000000001.wal.tmp", true, 100)
	must(fs.Rename("wal-0000000000000001.wal.tmp", "wal-0000000000000001.wal"))
	must(fs.SyncDir())
	write("wal-0000000000000001.wal", false, 40)
	write("wal-0000000000000001.wal", false, 2)
	write("seg-0000000000000001.seg.tmp", true, 700)
	must(fs.Rename("seg-0000000000000001.seg.tmp", "seg-0000000000000001.seg"))
	must(fs.SyncDir())
	must(fs.Remove("seg-0000000000000001.seg"))
	data, err := fs.ReadFile("wal-0000000000000001.wal")
	must(err)

	got := fs.Stats()
	got.WALSync, got.SegSync, got.DirSync = 0, 0, 0 // durations are not scripted
	want := FSStats{
		WALAppendBytes: 42, WALSyncCount: 3, WALRotateCount: 1, WALRotateBytes: 100,
		SegWriteCount: 1, SegWriteBytes: 700, SegRemoved: 1,
		DirSyncCount: 2, ReadBytes: int64(len(data)),
	}
	if got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
	if len(data) != 142 || want.WrittenBytes() != 842 {
		t.Errorf("read %d bytes back, written total %d", len(data), want.WrittenBytes())
	}
}

func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	spans := []RecSpan{
		{ID: 1, Layer: "bench", Start: 0, End: 100 * us, Weight: 1},
		{ID: 2, Parent: 1, Layer: "a", Depth: DepthStage, Start: 10 * us, End: 30 * us, Weight: 1},
		{ID: 3, Parent: 1, Layer: "a", Depth: DepthStage, Start: 20 * us, End: 50 * us, Weight: 1},   // overlaps 2: counted once
		{ID: 4, Parent: 1, Layer: "b", Depth: DepthStage, Start: 90 * us, End: 130 * us, Weight: 1},  // runs past the parent: clipped
		{ID: 5, Parent: 2, Layer: "c", Depth: DepthOp, Start: 12 * us, End: 13 * us, Weight: 8},      // sampled: stands for 8 µs
		{ID: 6, Parent: 3, Layer: "d", Depth: DepthStage, Start: 200 * us, End: 210 * us, Weight: 1}, // asynchronous: covers nothing
	}
	self := SelfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50 * us, 2: 12 * us, 3: 30 * us, 4: 40 * us, 5: 1 * us, 6: 10 * us} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
	layers := LayerSelf(spans)
	if layers["c"] != 8*us || layers["a"] != 42*us {
		t.Errorf("layer self times %v", layers)
	}
	back := FromTrace(ToTrace(spans))
	if !reflect.DeepEqual(LayerSelf(back), layers) {
		t.Errorf("self times change across a save: %v vs %v", LayerSelf(back), layers)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for samples, want := range map[int]float64{1: 50, 19: 50, 20: 50, 99: 50, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := SupportedPercentile(samples); got != want {
			t.Errorf("%d samples: p%g, want p%g", samples, got, want)
		}
	}
}

func TestDueClock(t *testing.T) {
	start := time.Unix(1000, 0)
	c := DueClock{Start: start, Interval: 40 * time.Millisecond}
	if got := c.Due(25); !got.Equal(start.Add(time.Second)) {
		t.Errorf("operation 25 due at %v", got)
	}
	// A stall does not move the schedule: operation 3 stays due at 120 ms
	// however late operation 2 went out.
	if c.Late(3, start.Add(160*time.Millisecond)) {
		t.Error("exactly one interval behind is not yet late")
	}
	if !c.Late(3, start.Add(161*time.Millisecond)) {
		t.Error("more than one interval behind is late")
	}
	if c.Late(3, start.Add(100*time.Millisecond)) {
		t.Error("early is not late")
	}
}
