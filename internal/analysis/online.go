package analysis

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"xsp/internal/gpu"
	"xsp/internal/stats"
	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// Online is the one implementation of the server's live analyses: A3/A6
// layer latencies by layer and type, launch-gap queue delay, memcpy totals
// with the copy/compute overlap, and A9-style roofline buckets. The
// streaming pipeline feeds it accepted spans (core.StreamOptions.Observer),
// one at a time or a released run at a time; a finished trace is its spans
// handed to ObserveSpans in order. Each analysis is snapshot-able under the
// engine's lock without stopping ingest.
//
// The paper's A2–A15 stay batch (RunSet): each summarizes repeated, leveled
// runs with a trimmed mean, which needs every run's samples, and A8–A15 also
// match per-kernel rows by occurrence across runs. Online keeps neither — it
// keeps running moments and sketches of one stream — so its layer view
// equals A2/A3/A6 at Trim 0 over the same spans, and nothing here replaces
// the multi-run tables.
//
// Every aggregate is deliberately independent of span parent links: the
// stream correlator may still revise a released span's ParentID (degraded
// windows close late, stragglers repair a region, checkpoints reopen), so
// the engine keys layers by their own layer_index/layer_type tags, pairs
// launches with executions by correlation id alone, and reads kernel
// metrics off the execution spans. That is what makes a snapshot taken
// mid-stream equal to the same analysis of the accepted spans as one
// finished trace — see the online-equals-batch oracle test, whose reference
// implementations read the trace and share no code with the observe path.
// For the same reason LaunchGapRow.LayerIndex, which needs ancestry, is -1.
//
// Memory is bounded for unbounded streams: layer aggregates grow with the
// number of distinct (index, name) layers (model-sized, not stream-sized),
// per-layer percentiles come from stats.Sketch (capped buckets, no
// samples), roofline buckets are a fixed range of log2(intensity), and
// the two launch/exec pairing tables are FIFO-capped at maxPending
// (65 536) entries each (evictions are counted and surfaced; an evicted
// unpaired entry can only under-count gaps for launches arriving more
// than that many kernels out of order, far beyond any real device queue).
// Launch ends sit in a trace.CorrTable — a direct-mapped slot array indexed
// by correlation id, which spills colliding ids to a map only while under a
// quarter full — with their FIFO a ring of maxPending ids: 16-byte slots, one
// to two a live launch on counter-assigned ids, plus 8 bytes of ring, and no
// hash map touched by a launch or exec that pairs in order. Execs waiting for
// their launch (the rare path) stay in a map, their FIFO compacted past
// twice the waiting count plus 64, so pairing late does not grow it either.
type Online struct {
	mu sync.Mutex

	idealAI    float64 // the spec's ideal arithmetic intensity: memory- vs compute-bound
	maxPending int     // cap on each pairing table, defaultMaxPending outside tests
	topK       int     // largest queue delays kept, defaultTopGaps outside tests

	spans int64

	// A3/A6: per-layer latency aggregates keyed like the batch pipeline.
	layers     map[layerKey]*onlineLayer
	layerOrder []layerKey

	// Launch gaps: correlation id -> launch end (the last launch wins) and
	// execs still waiting for their launch.
	launchEnd       trace.CorrTable[vclock.Time]
	launchQ         []uint64 // launchEnd's ids, a ring in first-insertion order once maxPending long
	launchHead      int      // launchQ's oldest id
	pendExec        map[uint64][]pendingGapExec
	pendQ           []pendRef // waiting execs in arrival order, paired ones until compacted
	pendSeq         uint64
	pendN           int
	evictedLaunches int64
	evictedExecs    int64
	gaps            stats.Online
	gapSketch       *stats.Sketch
	waited          int64
	topGaps         []LaunchGapRow // ascending by QueueMS, at most topK

	// Memcpy: per-direction totals plus the copy/compute overlap sweep.
	dirs     map[string]*onlineDir
	dirOrder []string
	sweep    overlapSweep

	// Roofline: log2(intensity) buckets over kernel executions, indexed by
	// key - rooflineZeroKey (nil until a kernel lands in one).
	buckets     [rooflineMaxExp - rooflineZeroKey + 1]*RooflineBucket
	kernels     int64
	kernLatMS   float64
	kernGflops  float64
	memBound    int64
	memBoundLat float64
}

// OnlineOptions configures an Online engine.
type OnlineOptions struct {
	// Spec classifies roofline buckets (memory- vs compute-bound against
	// the system's ideal arithmetic intensity), like RunSet.Spec.
	Spec gpu.Spec
}

const (
	// defaultMaxPending caps each of the two launch/exec pairing tables
	// (unpaired launch ends, execs waiting for a launch); the oldest entry
	// is evicted FIFO past it.
	defaultMaxPending = 65536
	// defaultTopGaps is how many largest queue delays the engine retains.
	defaultTopGaps = 32
)

type onlineLayer struct {
	key       layerKey
	layerType string
	shape     string
	alloc     float64
	lat       stats.Online
	sketch    *stats.Sketch
}

type pendingGapExec struct {
	seq   uint64 // arrival number: a pendRef names the exec by it
	begin vclock.Time
	name  string
}

// pendRef is an exec's place in the pending FIFO. It is stale once the exec
// paired or was evicted: an id's waiting execs are always its latest
// arrivals, and leave all at once (a launch) or oldest first (eviction).
type pendRef struct{ corr, seq uint64 }

type onlineDir struct {
	count int64
	latMS float64
	mb    float64
}

// NewOnline returns an empty engine.
func NewOnline(opts OnlineOptions) *Online {
	e := &Online{
		idealAI:    opts.Spec.IdealArithmeticIntensity(),
		maxPending: defaultMaxPending,
		topK:       defaultTopGaps,
	}
	e.reset()
	return e
}

func (e *Online) reset() {
	e.spans = 0
	e.layers = make(map[layerKey]*onlineLayer)
	e.layerOrder = nil
	e.launchEnd = trace.CorrTable[vclock.Time]{}
	e.launchQ, e.launchHead = nil, 0
	e.pendExec = make(map[uint64][]pendingGapExec)
	e.pendQ = nil
	e.pendN = 0
	e.evictedLaunches, e.evictedExecs = 0, 0
	e.gaps = stats.Online{}
	e.gapSketch = stats.NewSketch(stats.DefaultSketchAlpha)
	e.waited = 0
	e.topGaps = nil
	e.dirs = make(map[string]*onlineDir)
	e.dirOrder = nil
	e.sweep = overlapSweep{}
	e.buckets = [rooflineMaxExp - rooflineZeroKey + 1]*RooflineBucket{}
	e.kernels, e.kernLatMS, e.kernGflops = 0, 0, 0
	e.memBound, e.memBoundLat = 0, 0
}

// Reset discards all accumulated state, the engine-side counterpart of
// StreamCorrelator.Reset between independent evaluation runs.
func (e *Online) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reset()
}

// SpansObserved returns how many spans the engine has consumed.
func (e *Online) SpansObserved() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spans
}

// ObserveSpan folds one accepted span into every analysis it contributes
// to: ObserveSpans for a run of one.
func (e *Online) ObserveSpan(s *trace.Span) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observe(s)
}

// ObserveSpans folds a run of accepted spans, in order, into the analyses
// under one acquisition of the engine's lock: the stream correlator, which
// calls under its own mutex, hands over what a drain released rather than
// lock per span. A span is cheap to fold — its attributes are a handful of
// flat pairs read by a short scan, a layer or roofline aggregate a probe of a
// map of model-sized or fixed range, a launch or exec one slot of the
// correlation-id table, the rest O(1) accumulator updates, no allocation at
// steady state (BenchmarkOnlineAnalysis pins its arms). run is read, not kept.
func (e *Online) ObserveSpans(run []*trace.Span) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range run {
		e.observe(s)
	}
}

// observe is ObserveSpan under e.mu.
func (e *Online) observe(s *trace.Span) {
	e.spans++
	switch s.Level {
	case trace.LevelLayer:
		e.observeLayer(s)
	case trace.LevelKernel:
		switch {
		case s.Kind == trace.KindLaunch:
			if s.Name == "cudaLaunchKernel" && s.CorrelationID != 0 {
				e.observeLaunch(s)
			}
		case s.Kind == trace.KindExec:
			if strings.HasPrefix(s.Name, "Memcpy") {
				e.observeMemcpy(s)
			} else {
				e.observeKernelExec(s)
			}
		}
	}
}

func (e *Online) observeLayer(s *trace.Span) {
	idx, err := strconv.Atoi(s.Tag("layer_index"))
	if err != nil {
		return // the same skip as RunSet.layerGroups
	}
	k := layerKey{index: idx, name: s.Name}
	l, ok := e.layers[k]
	if !ok {
		l = &onlineLayer{
			key:       k,
			layerType: s.Tag("layer_type"),
			shape:     s.Tag("layer_shape"),
			alloc:     s.Metric("alloc_bytes"),
			sketch:    stats.NewSketch(stats.DefaultSketchAlpha),
		}
		e.layers[k] = l
		e.layerOrder = append(e.layerOrder, k)
	}
	lat := ms(s.Duration())
	l.lat.Add(lat)
	l.sketch.Add(lat)
}

func (e *Online) observeLaunch(s *trace.Span) {
	corr := s.CorrelationID
	if _, seen := e.launchEnd.Get(corr); !seen {
		if len(e.launchQ) < e.maxPending {
			e.launchQ = append(e.launchQ, corr)
		} else {
			// The ring is full: the oldest launch gives up its place and its entry.
			e.launchEnd.Delete(e.launchQ[e.launchHead])
			e.evictedLaunches++
			e.launchQ[e.launchHead] = corr
			e.launchHead = (e.launchHead + 1) % len(e.launchQ)
		}
	}
	e.launchEnd.Put(corr, s.End) // duplicates: the later launch wins
	if len(e.pendExec) == 0 {
		return
	}
	if waiting, ok := e.pendExec[corr]; ok {
		delete(e.pendExec, corr)
		e.pendN -= len(waiting)
		for _, p := range waiting {
			e.recordGap(p.name, p.begin, s.End)
		}
	}
}

func (e *Online) observeKernelExec(s *trace.Span) {
	// Roofline: intensity, throughput class, and latency come off the
	// exec span itself, so the point is final the moment it is observed.
	flops := s.Metric("flop_count_sp")
	ai := ArithmeticIntensity(flops, s.Metric("dram_read_bytes"), s.Metric("dram_write_bytes"))
	lat := ms(s.Duration())
	key := rooflineBucketKey(ai)
	b := e.buckets[key-rooflineZeroKey]
	if b == nil {
		b = newRooflineBucket(key)
		e.buckets[key-rooflineZeroKey] = b
	}
	b.Count++
	b.LatencyMS += lat
	b.Gflops += flops / 1e9
	memBound := ai < e.idealAI
	if memBound {
		b.MemoryBound++
		e.memBound++
		e.memBoundLat += lat
	}
	e.kernels++
	e.kernLatMS += lat
	e.kernGflops += flops / 1e9

	e.sweep.add(s.Begin, s.End, false)

	// Launch gap: pair by correlation id. The launch usually arrived
	// first (sweep order is begin-ascending and launches begin before
	// their executions); when it has not — straggler launches, recovery
	// replay — the exec waits in the pending table.
	corr := s.CorrelationID
	if corr == 0 {
		return
	}
	if end, ok := e.launchEnd.Get(corr); ok {
		e.recordGap(s.Name, s.Begin, end)
		return
	}
	e.pendSeq++
	e.pendExec[corr] = append(e.pendExec[corr], pendingGapExec{seq: e.pendSeq, begin: s.Begin, name: s.Name})
	e.pendQ = append(e.pendQ, pendRef{corr: corr, seq: e.pendSeq})
	e.pendN++
	if e.pendN > e.maxPending {
		// FIFO-evict the oldest waiting exec, skipping refs to execs that
		// already paired.
		for len(e.pendQ) > 0 {
			r := e.pendQ[0]
			e.pendQ = e.pendQ[1:]
			if !e.pendLive(r) {
				continue
			}
			if waiting := e.pendExec[r.corr]; len(waiting) == 1 {
				delete(e.pendExec, r.corr)
			} else {
				e.pendExec[r.corr] = waiting[1:]
			}
			e.pendN--
			e.evictedExecs++
			break
		}
	}
	if len(e.pendQ) > 2*e.pendN+64 {
		// Execs that paired with a late launch left their refs behind:
		// drop them, so the FIFO is bounded by what waits, not by what
		// ever waited.
		live := e.pendQ[:0]
		for _, r := range e.pendQ {
			if e.pendLive(r) {
				live = append(live, r)
			}
		}
		e.pendQ = live
	}
}

// pendLive reports whether r's exec still waits for its launch.
func (e *Online) pendLive(r pendRef) bool {
	waiting := e.pendExec[r.corr]
	return len(waiting) > 0 && r.seq >= waiting[0].seq
}

func (e *Online) recordGap(name string, execBegin, launchEnd vclock.Time) {
	gap := ms(execBegin.Sub(launchEnd))
	if gap < 0 {
		gap = 0
	}
	e.gaps.Add(gap)
	e.gapSketch.Add(gap)
	if gap > 1e-6 {
		e.waited++
	}
	// topGaps stays sorted ascending; O(topK) worst-case insert, O(1)
	// reject once the table is full of larger gaps.
	if len(e.topGaps) >= e.topK && gap <= e.topGaps[0].QueueMS {
		return
	}
	i := sort.Search(len(e.topGaps), func(i int) bool { return e.topGaps[i].QueueMS > gap })
	e.topGaps = append(e.topGaps, LaunchGapRow{})
	copy(e.topGaps[i+1:], e.topGaps[i:])
	e.topGaps[i] = LaunchGapRow{Name: name, LayerIndex: -1, QueueMS: gap}
	if len(e.topGaps) > e.topK {
		e.topGaps = e.topGaps[1:]
	}
}

func (e *Online) observeMemcpy(s *trace.Span) {
	dir := strings.TrimPrefix(s.Name, "Memcpy")
	d, ok := e.dirs[dir]
	if !ok {
		d = &onlineDir{}
		e.dirs[dir] = d
		e.dirOrder = append(e.dirOrder, dir)
	}
	d.count++
	d.latMS += ms(s.Duration())
	d.mb += s.Metric("bytes") / 1e6
	e.sweep.add(s.Begin, s.End, true)
}

// --- snapshots ---

// OnlineLayerRow is one layer's live latency aggregate: the A2/A3 row
// plus the spread the online accumulators get for free.
type OnlineLayerRow struct {
	Index    int
	Name     string
	Type     string
	Shape    string
	Count    int64
	MeanMS   float64
	MinMS    float64
	MaxMS    float64
	StdDevMS float64
	TotalMS  float64
	P50MS    float64
	P95MS    float64
	P99MS    float64
	AllocMB  float64
}

// OnlineLayersSnapshot is the live A3/A6 view: per-layer rows in layer
// index order and the per-type aggregation.
type OnlineLayersSnapshot struct {
	LayerSpans int64
	TotalMS    float64 // sum of per-layer mean latencies, like A3 summed
	Layers     []OnlineLayerRow
	Types      []TypeStat
}

// LaunchGapRow reports, for one kernel invocation, the delay between the
// host's cudaLaunchKernel call returning and the kernel starting on the
// device — the queueing delay. A growing gap means the host is running
// ahead of the device (GPU-bound); a near-zero gap means the device drains
// launches as fast as they arrive (launch/CPU-bound). This analysis is
// only possible because XSP keeps both the launch and execution span of
// each asynchronous kernel, tied by correlation_id (Section III-B) — it
// extends the paper's 15 analyses using the same trace.
type LaunchGapRow struct {
	Name       string
	LayerIndex int     // always -1: the engine keys nothing by ancestry
	QueueMS    float64 // exec begin minus launch end
}

// QueueDelaySummary is the total and maximum queueing delay plus the
// fraction of kernels that waited at all.
type QueueDelaySummary struct {
	Kernels   int
	Waited    int
	TotalMS   float64
	MaxMS     float64
	MeanMS    float64
	WaitShare float64 // Waited / Kernels
}

// OnlineLaunchGapsSnapshot is the live queue-delay view: the
// QueueDelaySummary plus quantiles, the largest gaps seen, and the
// pairing-table bounds.
type OnlineLaunchGapsSnapshot struct {
	QueueDelaySummary
	P50MS           float64
	P95MS           float64
	P99MS           float64
	Top             []LaunchGapRow // descending
	PendingExecs    int
	PendingLaunches int
	EvictedExecs    int64
	EvictedLaunches int64
}

// MemcpyRow summarizes the host<->device copies of one direction — the
// "GPU activities" besides kernels that CUPTI's activity API records
// (Section III-B lists kernel executions and memory copies together).
type MemcpyRow struct {
	Direction     string // "HtoD" or "DtoH"
	Count         int
	LatencyMS     float64
	MB            float64
	BandwidthGBps float64
}

// OnlineMemcpySnapshot is the live memcpy view: per-direction totals and
// the copy/compute overlap.
type OnlineMemcpySnapshot struct {
	Rows    []MemcpyRow
	TotalMS float64
	// OverlapMS is the virtual time during which at least one memcpy and
	// at least one kernel execution were simultaneously in flight.
	OverlapMS float64
	// OverlapExact reports whether every memcpy/kernel span arrived in
	// begin order, which makes OverlapMS exact. Straggler repairs and
	// recovery segment installs deliver out of order; such spans count
	// into the totals but are skipped by the overlap sweep and counted
	// in UnorderedSpans.
	OverlapExact   bool
	UnorderedSpans int64
}

// OnlineRooflineSnapshot is the live A9 view: kernel executions bucketed
// by log2(arithmetic intensity) with memory-/compute-bound totals.
type OnlineRooflineSnapshot struct {
	Kernels              int64
	TotalLatencyMS       float64
	TotalGflops          float64
	MemoryBound          int64
	ComputeBound         int64
	MemoryBoundLatencyMS float64
	IdealIntensity       float64
	Buckets              []RooflineBucket
}

// OnlineSnapshot bundles all four analyses at one instant.
type OnlineSnapshot struct {
	Spans      int64
	Layers     OnlineLayersSnapshot
	LaunchGaps OnlineLaunchGapsSnapshot
	Memcpy     OnlineMemcpySnapshot
	Roofline   OnlineRooflineSnapshot
}

// Snapshot returns all four analyses, consistent with each other (one
// lock acquisition covers them all).
func (e *Online) Snapshot() OnlineSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return OnlineSnapshot{
		Spans:      e.spans,
		Layers:     e.layersSnapshotLocked(),
		LaunchGaps: e.launchGapsSnapshotLocked(),
		Memcpy:     e.memcpySnapshotLocked(),
		Roofline:   e.rooflineSnapshotLocked(),
	}
}

// LayersSnapshot returns the live A3/A6 view.
func (e *Online) LayersSnapshot() OnlineLayersSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.layersSnapshotLocked()
}

func (e *Online) layersSnapshotLocked() OnlineLayersSnapshot {
	snap := OnlineLayersSnapshot{Layers: make([]OnlineLayerRow, 0, len(e.layerOrder))}
	typeRows := make([]LayerRow, 0, len(e.layerOrder))
	for _, k := range e.layerOrder {
		l := e.layers[k]
		mean := l.lat.Mean()
		snap.LayerSpans += l.lat.Count()
		snap.TotalMS += mean
		snap.Layers = append(snap.Layers, OnlineLayerRow{
			Index:    l.key.index,
			Name:     l.key.name,
			Type:     l.layerType,
			Shape:    l.shape,
			Count:    l.lat.Count(),
			MeanMS:   mean,
			MinMS:    l.lat.Min(),
			MaxMS:    l.lat.Max(),
			StdDevMS: l.lat.StdDev(),
			TotalMS:  l.lat.Sum(),
			P50MS:    l.sketch.Quantile(0.50),
			P95MS:    l.sketch.Quantile(0.95),
			P99MS:    l.sketch.Quantile(0.99),
			AllocMB:  mb(l.alloc),
		})
		typeRows = append(typeRows, LayerRow{
			Index: l.key.index, Name: l.key.name, Type: l.layerType,
			Shape: l.shape, LatencyMS: mean, AllocMB: mb(l.alloc),
		})
	}
	sort.Slice(snap.Layers, func(i, j int) bool { return snap.Layers[i].Index < snap.Layers[j].Index })
	// The same aggregation the batch A6 applies to its layer rows.
	snap.Types = typeStats(typeRows, func(r LayerRow) float64 { return r.LatencyMS })
	return snap
}

// LaunchGapsSnapshot returns the live queue-delay view.
func (e *Online) LaunchGapsSnapshot() OnlineLaunchGapsSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.launchGapsSnapshotLocked()
}

func (e *Online) launchGapsSnapshotLocked() OnlineLaunchGapsSnapshot {
	snap := OnlineLaunchGapsSnapshot{
		QueueDelaySummary: QueueDelaySummary{
			Kernels: int(e.gaps.Count()),
			Waited:  int(e.waited),
			TotalMS: e.gaps.Sum(),
			MaxMS:   e.gaps.Max(),
		},
		P50MS:           e.gapSketch.Quantile(0.50),
		P95MS:           e.gapSketch.Quantile(0.95),
		P99MS:           e.gapSketch.Quantile(0.99),
		PendingExecs:    e.pendN,
		PendingLaunches: e.launchEnd.Len(),
		EvictedExecs:    e.evictedExecs,
		EvictedLaunches: e.evictedLaunches,
	}
	if snap.Kernels > 0 {
		snap.MeanMS = snap.TotalMS / float64(snap.Kernels)
		snap.WaitShare = float64(snap.Waited) / float64(snap.Kernels)
	}
	snap.Top = make([]LaunchGapRow, len(e.topGaps))
	for i, r := range e.topGaps {
		snap.Top[len(e.topGaps)-1-i] = r // descending
	}
	return snap
}

// MemcpySnapshot returns the live memcpy view.
func (e *Online) MemcpySnapshot() OnlineMemcpySnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.memcpySnapshotLocked()
}

func (e *Online) memcpySnapshotLocked() OnlineMemcpySnapshot {
	snap := OnlineMemcpySnapshot{
		Rows:           make([]MemcpyRow, 0, len(e.dirOrder)),
		OverlapMS:      ms(e.sweep.overlap),
		OverlapExact:   e.sweep.unordered == 0,
		UnorderedSpans: e.sweep.unordered,
	}
	for _, dir := range e.dirOrder {
		d := e.dirs[dir]
		row := MemcpyRow{Direction: dir, Count: int(d.count), LatencyMS: d.latMS, MB: d.mb}
		if row.LatencyMS > 0 {
			row.BandwidthGBps = row.MB / 1e3 / (row.LatencyMS / 1e3)
		}
		snap.TotalMS += row.LatencyMS
		snap.Rows = append(snap.Rows, row)
	}
	return snap
}

// RooflineSnapshot returns the live A9 view.
func (e *Online) RooflineSnapshot() OnlineRooflineSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rooflineSnapshotLocked()
}

func (e *Online) rooflineSnapshotLocked() OnlineRooflineSnapshot {
	snap := OnlineRooflineSnapshot{
		Kernels:              e.kernels,
		TotalLatencyMS:       e.kernLatMS,
		TotalGflops:          e.kernGflops,
		MemoryBound:          e.memBound,
		ComputeBound:         e.kernels - e.memBound,
		MemoryBoundLatencyMS: e.memBoundLat,
		IdealIntensity:       e.idealAI,
		Buckets:              []RooflineBucket{}, // [] on the wire before the first kernel, not null
	}
	for _, b := range e.buckets {
		if b != nil {
			snap.Buckets = append(snap.Buckets, *b)
		}
	}
	return snap
}

// --- roofline bucketing ---

// Roofline buckets span 2^-10 .. 2^20 flops/byte in factor-of-two steps;
// intensities outside clamp to the edge buckets, and kernels with no
// recorded DRAM traffic land in the dedicated zero bucket.
const (
	rooflineMinExp  = -10
	rooflineMaxExp  = 20
	rooflineZeroKey = rooflineMinExp - 1
)

// RooflineBucket is one bar of the A9-style roofline histogram: the
// kernel executions whose arithmetic intensity falls in
// [MinIntensity, MaxIntensity), with their total latency, total flops,
// and how many classified memory-bound against the system spec.
type RooflineBucket struct {
	MinIntensity float64 // 0 for the zero-traffic bucket
	MaxIntensity float64
	Count        int64
	LatencyMS    float64
	Gflops       float64
	MemoryBound  int64
}

func rooflineBucketKey(ai float64) int {
	if ai <= 0 {
		return rooflineZeroKey
	}
	e := int(math.Floor(math.Log2(ai)))
	if e < rooflineMinExp {
		e = rooflineMinExp
	}
	if e > rooflineMaxExp {
		e = rooflineMaxExp
	}
	return e
}

func newRooflineBucket(key int) *RooflineBucket {
	if key == rooflineZeroKey {
		return &RooflineBucket{}
	}
	return &RooflineBucket{
		MinIntensity: math.Pow(2, float64(key)),
		MaxIntensity: math.Pow(2, float64(key+1)),
	}
}

// --- copy/compute overlap sweep ---

// overlapSweep measures |union(copies) ∩ union(kernels)| over intervals
// arriving in begin order, in O(1) state: because every already-seen
// interval began at or before the next one's begin, each class's coverage
// from that begin onward is the single interval [begin, maxEnd) — so the
// newly covered part of an arriving interval is [max(begin, ownEnd), end)
// and its contribution is that part clipped to [_, otherEnd). Intervals
// arriving out of begin order (straggler repairs, recovery installs)
// cannot be placed exactly without retaining history; the sweep counts
// and skips them.
type overlapSweep struct {
	started   bool
	lastBegin vclock.Time
	copyEnd   vclock.Time
	kernEnd   vclock.Time
	hasCopy   bool
	hasKern   bool
	overlap   vclock.Duration
	unordered int64
}

func (o *overlapSweep) add(begin, end vclock.Time, isCopy bool) {
	if o.started && begin < o.lastBegin {
		o.unordered++
		return
	}
	o.started = true
	o.lastBegin = begin
	ownEnd, hasOwn := &o.copyEnd, &o.hasCopy
	otherEnd, hasOther := o.kernEnd, o.hasKern
	if !isCopy {
		ownEnd, hasOwn = &o.kernEnd, &o.hasKern
		otherEnd, hasOther = o.copyEnd, o.hasCopy
	}
	s := begin
	if *hasOwn && *ownEnd > s {
		s = *ownEnd
	}
	if hasOther && s < end && s < otherEnd {
		stop := end
		if otherEnd < stop {
			stop = otherEnd
		}
		o.overlap += stop.Sub(s)
	}
	if !*hasOwn || end > *ownEnd {
		*ownEnd = end
	}
	*hasOwn = true
}
