package analysis

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"xsp/internal/core"
	"xsp/internal/gpu"
	"xsp/internal/segio"
	"xsp/internal/segio/faultfs"
	"xsp/internal/trace"
	"xsp/internal/vclock"
	"xsp/internal/workload"
)

// The online-equals-batch oracle: the same generated workload goes
// through an Online engine attached as the stream correlator's observer
// and through the batch analyses of the correlator's final trace — RunSet's
// A2/A3/A6 and the reference implementations below — and every analysis
// must agree over the accepted spans. Trim is 0 on the batch side — the
// only cross-run summary an online engine can compute without retaining
// samples; with one run per value the trimmed mean at 0 is the plain mean.
// Floats tolerate summation-order differences (Welford and
// per-delivery-order sums vs sorted-slice sums); counts and
// classifications must match exactly.

// The reference implementations below are the batch forms of the launch-gap,
// memcpy, overlap and roofline analyses, functions of one finished trace.
// They read the trace directly and call nothing on Online's observe path: a
// launch gap pairs by correlation id, the overlap is the
// measure of the intersection of the two classes' interval unions, and a
// roofline bucket is derived from A8's kernel rows.

// oracleLaunchGaps returns the queueing delay, in ms, of every kernel
// execution in tr that has a cudaLaunchKernel launch, in trace order. Among
// launches sharing a correlation id the last one in the trace wins.
func oracleLaunchGaps(tr *trace.Trace) []float64 {
	launches := map[uint64]*trace.Span{} // correlation id 0 marks no correlation
	for _, sp := range tr.Spans {
		if sp.CorrelationID != 0 && sp.Kind == trace.KindLaunch && sp.Name == "cudaLaunchKernel" {
			launches[sp.CorrelationID] = sp
		}
	}
	var gaps []float64
	for _, sp := range tr.Spans {
		if !isKernelExec(sp) {
			continue
		}
		if launch := launches[sp.CorrelationID]; launch != nil {
			gaps = append(gaps, max(0, ms(sp.Begin.Sub(launch.End))))
		}
	}
	return gaps
}

// oracleQueueDelay summarizes oracleLaunchGaps.
func oracleQueueDelay(tr *trace.Trace) QueueDelaySummary {
	var s QueueDelaySummary
	for _, gap := range oracleLaunchGaps(tr) {
		s.Kernels++
		s.TotalMS += gap
		s.MaxMS = max(s.MaxMS, gap)
		if gap > 1e-6 {
			s.Waited++
		}
	}
	if s.Kernels > 0 {
		s.MeanMS = s.TotalMS / float64(s.Kernels)
		s.WaitShare = float64(s.Waited) / float64(s.Kernels)
	}
	return s
}

// oracleTopLaunchGaps returns the k largest queueing delays, descending.
func oracleTopLaunchGaps(tr *trace.Trace, k int) []float64 {
	gaps := oracleLaunchGaps(tr)
	sort.Sort(sort.Reverse(sort.Float64Slice(gaps)))
	return gaps[:min(k, len(gaps))]
}

// oracleMemcpyTable aggregates the copies in tr by direction, in order of
// each direction's first copy.
func oracleMemcpyTable(tr *trace.Trace) []MemcpyRow {
	var rows []MemcpyRow
	for _, sp := range tr.Spans {
		if sp.Kind != trace.KindExec || !strings.HasPrefix(sp.Name, "Memcpy") {
			continue
		}
		dir := strings.TrimPrefix(sp.Name, "Memcpy")
		i := slices.IndexFunc(rows, func(r MemcpyRow) bool { return r.Direction == dir })
		if i < 0 {
			i = len(rows)
			rows = append(rows, MemcpyRow{Direction: dir})
		}
		rows[i].Count++
		rows[i].LatencyMS += ms(sp.Duration())
		rows[i].MB += sp.Metric("bytes") / 1e6
	}
	for i := range rows {
		if rows[i].LatencyMS > 0 {
			rows[i].BandwidthGBps = rows[i].MB / 1e3 / (rows[i].LatencyMS / 1e3)
		}
	}
	return rows
}

// oracleMemcpyOverlapMS returns the virtual time during which at least one
// memory copy and at least one kernel execution of tr were in flight: the
// measure of union(copies) ∩ union(kernels).
func oracleMemcpyOverlapMS(tr *trace.Trace) float64 {
	type iv struct{ begin, end vclock.Time }
	// union merges a class's intervals into disjoint ones, in begin order.
	union := func(ivs []iv) []iv {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].begin < ivs[j].begin })
		var out []iv
		for _, v := range ivs {
			switch {
			case v.end <= v.begin:
			case len(out) > 0 && v.begin <= out[len(out)-1].end:
				out[len(out)-1].end = max(out[len(out)-1].end, v.end)
			default:
				out = append(out, v)
			}
		}
		return out
	}
	var copies, kernels []iv
	for _, sp := range tr.Spans {
		if sp.Kind != trace.KindExec || sp.Level != trace.LevelKernel {
			continue
		}
		if strings.HasPrefix(sp.Name, "Memcpy") {
			copies = append(copies, iv{sp.Begin, sp.End})
		} else {
			kernels = append(kernels, iv{sp.Begin, sp.End})
		}
	}
	a, b := union(copies), union(kernels)
	var overlap vclock.Duration
	for i, j := 0, 0; i < len(a) && j < len(b); {
		if lo, hi := max(a[i].begin, b[j].begin), min(a[i].end, b[j].end); lo < hi {
			overlap += hi.Sub(lo)
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return ms(overlap)
}

// oracleRooflineBuckets buckets A8's kernel rows of tr by
// floor(log2(intensity)), clamped to [2^-10, 2^21); kernels with no DRAM
// traffic form the zero bucket. Buckets come in ascending intensity.
func oracleRooflineBuckets(spec gpu.Spec, tr *trace.Trace) []RooflineBucket {
	var out []RooflineBucket
	for _, r := range (&RunSet{Spec: spec, Traces: []*trace.Trace{tr}}).A8KernelInfo() { // Trim 0
		var lo, hi float64 // the zero bucket's bounds
		if r.Intensity > 0 {
			e := min(max(math.Floor(math.Log2(r.Intensity)), -10), 20)
			lo, hi = math.Exp2(e), math.Exp2(e+1)
		}
		i, found := slices.BinarySearchFunc(out, lo, func(b RooflineBucket, lo float64) int { return cmp.Compare(b.MinIntensity, lo) })
		if !found {
			out = slices.Insert(out, i, RooflineBucket{MinIntensity: lo, MaxIntensity: hi})
		}
		b := &out[i]
		b.Count++
		b.LatencyMS += r.LatencyMS
		b.Gflops += r.Gflops
		if r.MemoryBound {
			b.MemoryBound++
		}
	}
	return out
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// runOnlineStream feeds the workload through a stream correlator with a
// fresh Online engine observing. restartAt >= 0 makes the run durable
// (in-memory faultfs) and simulates a process restart — store close,
// reopen, RecoverStream with a brand-new engine — before feeding batch
// index restartAt; the recovered engine must end up equal to one that
// saw the whole uncrashed stream. checkpointAt >= 0 forces a fold before
// that batch index.
func runOnlineStream(t *testing.T, batches [][]*trace.Span, opts core.StreamOptions, restartAt, checkpointAt int) (*Online, *trace.Trace) {
	t.Helper()
	eng := NewOnline(OnlineOptions{Spec: gpu.TeslaV100})
	opts.Observer = eng

	var sc *core.StreamCorrelator
	var fs *faultfs.FS
	var st *segio.Store
	if restartAt >= 0 {
		fs = faultfs.New()
		var rec *segio.Recovery
		var err error
		st, rec, err = segio.Open(fs, segio.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = st
		if sc, err = core.RecoverStream(opts, rec); err != nil {
			t.Fatal(err)
		}
	} else {
		sc = core.NewStreamCorrelator(opts)
	}

	for i, b := range batches {
		if i == restartAt && i > 0 {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			store, rec, err := segio.Open(fs, segio.Options{})
			if err != nil {
				t.Fatal(err)
			}
			st = store
			opts.Store = st
			// A new process: a brand-new engine must rebuild the analysis
			// state from recovered segments plus WAL replay.
			eng = NewOnline(OnlineOptions{Spec: gpu.TeslaV100})
			opts.Observer = eng
			if sc, err = core.RecoverStream(opts, rec); err != nil {
				t.Fatal(err)
			}
		}
		if i == checkpointAt {
			sc.Checkpoint()
		}
		sc.Feed(b...)
	}
	sc.Flush()
	if restartAt >= 0 {
		if err := sc.DurabilityErr(); err != nil {
			t.Fatal(err)
		}
	}
	return eng, sc.SnapshotTrace()
}

func assertOnlineEqualsBatch(t *testing.T, eng *Online, tr *trace.Trace) {
	t.Helper()
	rs, err := NewRunSet(gpu.TeslaV100, tr)
	if err != nil {
		t.Fatal(err)
	}
	rs.Trim = 0
	snap := eng.Snapshot()

	if snap.Spans != int64(len(tr.Spans)) {
		t.Fatalf("engine observed %d spans, trace holds %d", snap.Spans, len(tr.Spans))
	}

	// A3/A6: per-layer and per-type latency.
	layers := rs.A2LayerInfo()
	if len(snap.Layers.Layers) != len(layers) {
		t.Fatalf("online layers = %d, batch = %d", len(snap.Layers.Layers), len(layers))
	}
	for i, want := range layers {
		got := snap.Layers.Layers[i]
		if got.Index != want.Index || got.Name != want.Name || got.Type != want.Type || got.Shape != want.Shape {
			t.Fatalf("layer %d identity: online %+v batch %+v", i, got, want)
		}
		if !relClose(got.MeanMS, want.LatencyMS) {
			t.Fatalf("layer %d latency: online %v batch %v", i, got.MeanMS, want.LatencyMS)
		}
		if !relClose(got.AllocMB, want.AllocMB) {
			t.Fatalf("layer %d alloc: online %v batch %v", i, got.AllocMB, want.AllocMB)
		}
		if got.MinMS > got.MeanMS+1e-12 || got.MeanMS > got.MaxMS+1e-12 {
			t.Fatalf("layer %d: min %v mean %v max %v out of order", i, got.MinMS, got.MeanMS, got.MaxMS)
		}
	}
	types := rs.A6LatencyByType()
	if len(snap.Layers.Types) != len(types) {
		t.Fatalf("online types = %d, batch = %d", len(snap.Layers.Types), len(types))
	}
	// Both sides rank types by summed latency, and sum in different orders:
	// two types within rounding of each other may swap places. So a rank
	// must hold a close value on both sides, and a type the same numbers.
	byType := make(map[string]TypeStat, len(types))
	for _, want := range types {
		byType[want.Type] = want
	}
	for i, got := range snap.Layers.Types {
		want, ok := byType[got.Type]
		if !ok || got.Count != want.Count || !relClose(got.Value, want.Value) || !relClose(got.Percent, want.Percent) ||
			!relClose(got.Value, types[i].Value) {
			t.Fatalf("type %d: online %+v batch %+v (rank %d: %+v)", i, got, want, i, types[i])
		}
	}

	// Launch-gap queue delay.
	q := oracleQueueDelay(tr)
	g := snap.LaunchGaps
	if g.Kernels != q.Kernels || g.Waited != q.Waited {
		t.Fatalf("queue delay counts: online %d/%d batch %d/%d", g.Kernels, g.Waited, q.Kernels, q.Waited)
	}
	if !relClose(g.TotalMS, q.TotalMS) || !relClose(g.MaxMS, q.MaxMS) ||
		!relClose(g.MeanMS, q.MeanMS) || !relClose(g.WaitShare, q.WaitShare) {
		t.Fatalf("queue delay: online %+v batch %+v", g.QueueDelaySummary, q)
	}
	top := oracleTopLaunchGaps(tr, 10)
	for i := 0; i < len(top) && i < len(g.Top); i++ {
		if !relClose(top[i], g.Top[i].QueueMS) {
			t.Fatalf("top gap %d: online %v batch %v", i, g.Top[i].QueueMS, top[i])
		}
	}

	// Memcpy totals (keyed by direction; first-seen order may differ
	// between canonical and delivery order).
	batchDirs := map[string]MemcpyRow{}
	for _, r := range oracleMemcpyTable(tr) {
		batchDirs[r.Direction] = r
	}
	if len(snap.Memcpy.Rows) != len(batchDirs) {
		t.Fatalf("online memcpy dirs = %d, batch = %d", len(snap.Memcpy.Rows), len(batchDirs))
	}
	for _, got := range snap.Memcpy.Rows {
		want, ok := batchDirs[got.Direction]
		if !ok {
			t.Fatalf("online-only memcpy direction %q", got.Direction)
		}
		if got.Count != want.Count || !relClose(got.LatencyMS, want.LatencyMS) ||
			!relClose(got.MB, want.MB) || !relClose(got.BandwidthGBps, want.BandwidthGBps) {
			t.Fatalf("memcpy %s: online %+v batch %+v", got.Direction, got, want)
		}
	}
	if snap.Memcpy.OverlapExact {
		if want := oracleMemcpyOverlapMS(tr); !relClose(snap.Memcpy.OverlapMS, want) {
			t.Fatalf("overlap: online %v batch %v", snap.Memcpy.OverlapMS, want)
		}
	}

	// A9 roofline buckets.
	buckets := oracleRooflineBuckets(gpu.TeslaV100, tr)
	if len(snap.Roofline.Buckets) != len(buckets) {
		t.Fatalf("online buckets = %d, batch = %d", len(snap.Roofline.Buckets), len(buckets))
	}
	var kernels, memBound int64
	for i, want := range buckets {
		got := snap.Roofline.Buckets[i]
		if got.MinIntensity != want.MinIntensity || got.Count != want.Count || got.MemoryBound != want.MemoryBound {
			t.Fatalf("bucket %d: online %+v batch %+v", i, got, want)
		}
		if !relClose(got.LatencyMS, want.LatencyMS) || !relClose(got.Gflops, want.Gflops) {
			t.Fatalf("bucket %d sums: online %+v batch %+v", i, got, want)
		}
		kernels += want.Count
		memBound += want.MemoryBound
	}
	if snap.Roofline.Kernels != kernels || snap.Roofline.MemoryBound != memBound {
		t.Fatalf("roofline totals: online %d/%d batch %d/%d",
			snap.Roofline.Kernels, snap.Roofline.MemoryBound, kernels, memBound)
	}
	if !relClose(snap.Roofline.TotalLatencyMS, rs.TotalKernelLatencyMS()) {
		t.Fatalf("kernel latency total: online %v batch %v", snap.Roofline.TotalLatencyMS, rs.TotalKernelLatencyMS())
	}
}

var onlineLayerTypes = []string{"Conv2D", "Relu", "MatMul", "BatchNorm"}

func onlineOracleBody(t *testing.T, spans uint16, streams uint8, dropLaunches bool,
	batchSize, skew, window, stragglerWin, retain uint16, seed int64,
	durable bool, restartAt uint16) {
	n := int(spans)
	if n < 64 {
		n = 64
	}
	if n > 6000 {
		n = 6000
	}
	bs := int(batchSize)
	if bs < 1 {
		bs = 1
	}
	if bs > 1024 {
		bs = 1024
	}
	st := int(streams)%4 + 1

	for _, remap := range corrRemaps(seed) {
		t.Logf("correlation ids: %s", remap.name)
		batches := workload.StreamingArrivals(workload.StreamingSpec{
			Trace: workload.SyntheticSpec{
				Spans:           n,
				Streams:         st,
				DropLaunches:    dropLaunches,
				LayerTypes:      onlineLayerTypes,
				KernelMetrics:   true,
				MemcpysPerLayer: 2,
				Seed:            seed,
			},
			BatchSize:       bs,
			ReorderSkew:     vclock.Duration(skew % 128),
			StragglerWindow: vclock.Duration(stragglerWin % 128),
			Seed:            seed + 1,
		})
		remap.apply(batches)
		opts := core.StreamOptions{
			ReorderWindow: vclock.Duration(window % 128),
			Retain:        vclock.Duration(retain % 512),
		}
		restart := -1
		if durable {
			restart = int(restartAt) % (len(batches) + 1)
		}
		checkpointAt := -1
		if opts.Retain > 0 {
			checkpointAt = len(batches) / 2
		}
		eng, tr := runOnlineStream(t, batches, opts, restart, checkpointAt)
		assertOnlineEqualsBatch(t, eng, tr)

		// The engine above was handed runs, as the correlator cut them. Whatever
		// the cut, a run is its spans one after the other: the same spans in runs
		// of random length leave an engine in the state, to the bit, that span by
		// span delivery leaves.
		bySpan, byRun := NewOnline(OnlineOptions{Spec: gpu.TeslaV100}), NewOnline(OnlineOptions{Spec: gpu.TeslaV100})
		rng := rand.New(rand.NewSource(seed))
		for rest := tr.Spans; len(rest) > 0; {
			run := rest[:1+rng.Intn(min(len(rest), 2*bs))]
			rest = rest[len(run):]
			byRun.ObserveSpans(run)
			for _, s := range run {
				bySpan.ObserveSpan(s)
			}
		}
		if want, got := bySpan.Snapshot(), byRun.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("ObserveSpans over random runs: snapshot %+v, span by span %+v", got, want)
		}
	}
}

// corrRemap is an injective rewrite of a stream's correlation ids, applied
// before the stream is fed, so the engine and the batch analyses of the
// correlator's trace see the same rewritten ids. (FuzzStreamVsBatch's package
// holds the same rewrites for the correlator's own oracle.)
type corrRemap struct {
	name string
	id   func(corr uint64) uint64 // nil: the ids as generated
}

// corrRemaps returns the rewrites every oracle input runs under: the
// generator's dense ids; a seed-chosen stride c<<20, which puts every id on
// one slot of any correlation table under 2^20 slots and so drives its spill
// and its growth; and random 64-bit ids.
func corrRemaps(seed int64) []corrRemap {
	rng := rand.New(rand.NewSource(seed))
	c := uint64(1 + rng.Intn(255))
	random, used := make(map[uint64]uint64), make(map[uint64]bool)
	return []corrRemap{
		{name: "dense"},
		{name: fmt.Sprintf("stride %d<<20", c), id: func(corr uint64) uint64 { return corr * c << 20 }},
		{name: "random", id: func(corr uint64) uint64 {
			for random[corr] == 0 {
				if r := rng.Uint64(); r != 0 && !used[r] {
					random[corr], used[r] = r, true
				}
			}
			return random[corr]
		}},
	}
}

func (m corrRemap) apply(batches [][]*trace.Span) {
	if m.id == nil {
		return
	}
	for _, b := range batches {
		for _, s := range b {
			if s.CorrelationID != 0 {
				s.CorrelationID = m.id(s.CorrelationID)
			}
		}
	}
}

// FuzzOnlineVsBatch drives the oracle across arrival disorder,
// stragglers, pipelined overlap, checkpoint folds, and mid-stream durable
// restarts — the same dimensions FuzzStreamVsBatch proves parent
// equivalence over — each input under every corrRemaps rewrite of its
// correlation ids, so the launch table's spill and growth run through it.
func FuzzOnlineVsBatch(f *testing.F) {
	// spans, streams, dropLaunches, batchSize, skew, window, stragglerWin, retain, seed, durable, restartAt
	f.Add(uint16(2_000), uint8(0), false, uint16(128), uint16(0), uint16(0), uint16(0), uint16(0), int64(1), false, uint16(0))
	f.Add(uint16(2_000), uint8(2), false, uint16(64), uint16(0), uint16(0), uint16(0), uint16(0), int64(2), false, uint16(0))
	f.Add(uint16(2_000), uint8(0), true, uint16(128), uint16(0), uint16(0), uint16(0), uint16(0), int64(3), false, uint16(0))
	f.Add(uint16(2_000), uint8(0), false, uint16(128), uint16(48), uint16(48), uint16(0), uint16(0), int64(4), false, uint16(0))
	f.Add(uint16(2_000), uint8(2), false, uint16(64), uint16(64), uint16(8), uint16(0), uint16(0), int64(5), false, uint16(0))
	// Stragglers land in the repair path (out-of-order delivery).
	f.Add(uint16(2_000), uint8(0), false, uint16(256), uint16(32), uint16(32), uint16(96), uint16(0), int64(6), false, uint16(0))
	// Checkpoint folds mid-stream.
	f.Add(uint16(3_000), uint8(2), false, uint16(64), uint16(16), uint16(32), uint16(0), uint16(256), int64(7), false, uint16(0))
	// Durable: restart at boot, mid-stream, and past the end (no-op).
	f.Add(uint16(2_000), uint8(1), false, uint16(64), uint16(8), uint16(16), uint16(0), uint16(128), int64(8), true, uint16(0))
	f.Add(uint16(3_000), uint8(2), false, uint16(32), uint16(8), uint16(16), uint16(0), uint16(64), int64(9), true, uint16(20))
	f.Add(uint16(2_000), uint8(0), true, uint16(64), uint16(16), uint16(16), uint16(48), uint16(128), int64(10), true, uint16(7))
	f.Fuzz(onlineOracleBody)
}

// TestOnlineEqualsBatch pins the oracle's key scenarios deterministically
// (the fuzz seeds, runnable under plain `go test -race`).
func TestOnlineEqualsBatch(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"in-order", func(t *testing.T) {
			onlineOracleBody(t, 2000, 0, false, 128, 0, 0, 0, 0, 1, false, 0)
		}},
		{"pipelined", func(t *testing.T) {
			onlineOracleBody(t, 2000, 2, false, 64, 64, 8, 0, 0, 5, false, 0)
		}},
		{"device-only", func(t *testing.T) {
			onlineOracleBody(t, 2000, 0, true, 128, 16, 16, 0, 0, 3, false, 0)
		}},
		{"stragglers", func(t *testing.T) {
			onlineOracleBody(t, 2000, 0, false, 256, 32, 32, 96, 0, 6, false, 0)
		}},
		{"checkpoint-fold", func(t *testing.T) {
			onlineOracleBody(t, 3000, 2, false, 64, 16, 32, 0, 256, 7, false, 0)
		}},
		{"restart-mid-stream", func(t *testing.T) {
			onlineOracleBody(t, 3000, 2, false, 32, 8, 16, 0, 64, 9, true, 20)
		}},
		{"restart-with-stragglers", func(t *testing.T) {
			onlineOracleBody(t, 2000, 0, true, 64, 16, 16, 48, 128, 10, true, 7)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestOnlineOverlapExactInOrder pins that an in-order stream keeps the
// overlap sweep exact (OverlapExact true) and equal to the batch union
// overlap, and that the overlap is actually nonzero under pipelined
// streams (copies crossing kernels). The reorder window must cover
// equal-begin ties: with a zero window a span arriving at the watermark
// can compare at-or-before the release floor and take the straggler
// (out-of-order) path even though arrival order was begin-sorted.
func TestOnlineOverlapExactInOrder(t *testing.T) {
	batches := workload.StreamingArrivals(workload.StreamingSpec{
		Trace: workload.SyntheticSpec{
			Spans: 4000, Streams: 3, LayerTypes: onlineLayerTypes,
			KernelMetrics: true, MemcpysPerLayer: 2, Seed: 11,
		},
		BatchSize: 128,
	})
	eng, tr := runOnlineStream(t, batches, core.StreamOptions{ReorderWindow: 64}, -1, -1)
	snap := eng.MemcpySnapshot()
	if !snap.OverlapExact {
		t.Fatalf("in-order stream should keep the sweep exact: %+v", snap)
	}
	if snap.OverlapMS <= 0 {
		t.Fatal("pipelined streams should overlap copies with kernels")
	}
	if want := oracleMemcpyOverlapMS(tr); !relClose(snap.OverlapMS, want) {
		t.Fatalf("overlap: online %v batch %v", snap.OverlapMS, want)
	}
}
