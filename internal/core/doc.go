// Package core implements XSP itself — the paper's primary contribution:
// across-stack profiling through distributed tracing. Each profiler in the
// stack is wrapped as a tracer publishing spans to a tracing server:
//
//   - model level (level 1): startSpan/finishSpan around the inference
//     pipeline steps (input pre-processing, model prediction, output
//     post-processing);
//   - layer level (level 2): the framework profiler's records, converted
//     to spans offline after the run;
//   - GPU kernel level (level 4): CUPTI callback records become launch
//     spans and activity records become execution spans, tied by
//     correlation_id, with GPU metrics attached to execution spans.
//
// [StreamCorrelator] reconstructs the parent-child relationships the
// disjoint profilers could not record: per-level ancestor stacks serve the
// properly nested traces the paper's profilers produce, and per-level
// interval trees handle a window of arbitrary overlap (pipelined
// execution). It is the one correlator: a [Session] or [Application] feeds
// it the profiled trace as one batch and flushes it, and xsp-server feeds it
// spans as they arrive. When parallel events leave a kernel's layer
// attribution genuinely ambiguous ([Ambiguous]), XSP re-runs the model
// serialized (CUDA_LAUNCH_BLOCKING=1) to recover the correlation — exactly
// the paper's Section III design.
//
// [Correlate] is the batch reference the stream is held to, not a second
// mode: per-level interval trees over a whole trace, reached independently
// of the stream's buffer, stacks and windows, which the stream-vs-batch
// oracles and the benchmark's check compare the stream's parents with. It
// lives in benchapi.go, and product code never calls it.
//
// # Streaming correlation
//
// [StreamCorrelator] correlates as it ingests: it consumes spans in
// arrival order (Feed, or Publish as a trace.Collector — xsp-server's
// tenant, the trace.Consumer of its ingest half, feeds it an admitted POST
// through an async tap in RAM mode and with FeedLogged at the ack barrier
// when durable) and maintains per-level active-ancestor stacks
// incrementally, so launch and synchronous
// spans resolve the moment they arrive and execution spans the moment their
// launch does
// (device-only records wait in a pending correlation-id table for the
// containment fallback). Pipelined overlap degrades only the window it
// occurs in — that stretch of the stream resolves through per-level
// interval trees scoped to the window — while the rest of the stream
// stays on the stack fast path. Arrival reordering up to
// StreamOptions.ReorderWindow of virtual time is absorbed in order by a
// watermark-keyed reorder buffer; anything later is a straggler, and
// [StreamCorrelator.Flush] finalizes stragglers through a bounded repair
// region — only the released spans overlapping the stragglers' windows
// (clustered by overlap) re-correlate, against interval trees over
// exactly that region, with launch-parent changes propagated through the
// correlation table to execution spans outside it, which one pass over the
// released runs finds — so the post-Flush assignment is exactly the batch
// reference's (Correlate) result (property-tested across nested,
// pipelined, and device-only workloads under every arrival regime) at a
// cost proportional to the stragglers' overlap (plus, when a launch moved,
// that pass over what is live), not the accumulated trace.
//
// A live span is held in exactly one place: the reorder buffer until the
// watermark releases it, the straggler list until a repair splices it in,
// and from then on its level's released run — spans in sweep order with
// prefix maxima over End — until a fold moves it into a checkpoint
// segment. The buffer is one run in sweep order too: each batch is sorted
// once on arrival and merged into its tail, and a release cuts its prefix.
// The released runs, the buffer and the stragglers are the live
// set: repairs collect their regions from the runs, folds evict from them,
// WAL snapshots and every read (View) enumerate the three holders, and
// Stats().Live sums them. There is no arrival-ordered list of
// live spans and no table of execution spans by correlation id to keep in
// step with them.
//
// The launch/exec join itself — a resolved launch's parent, found by each of
// its execs through the correlation id — is a trace.CorrTable, the same type
// the batch reference Correlate fills: a power-of-two array of {id, entry}
// slots indexed by the id's low bits, which holds the dense or strided id windows tracers
// assign with no hash and no collision, and spills a colliding id to a map
// only while under a quarter full. A resolved launch costs one slot write
// (its parent and, under CorrRetain, the watermark the eviction sweep checks,
// in one entry), an exec one slot read, an eviction one slot check; the
// pending-exec table, which in-order traffic leaves empty, is not probed.
//
// For always-on servers, [StreamCorrelator.Checkpoint] (and
// StreamOptions.Retain for the automatic form) folds finalized history —
// spans the sweep has passed by more than ReorderWindow+Retain, with no
// open degraded window or pending execution reaching back — into
// immutable checkpoint segments that every read merges with
// the live tail, keeping the live resolver state bounded (the automatic
// fold waits for 1024 releases or an eighth of the live tail, whichever is
// more, so its O(live) pass and its segment file cost what they fold at any
// tail, and the tail overshoots its horizon by at most a seventh); a straggler
// reaching behind the checkpoint horizon reopens it by the window — the
// folded spans its repair window overlaps go back live, the segments that
// held them are replaced by their remainders, the rest of the history
// stays folded — so a deep repair costs a pass over span headers plus the
// region, not a rebuild of the stream.
//
// Folded history is held encoded: a fold encodes its spans once into an
// immutable span block (the trace codec's layout, the owned bit in each
// 80-byte record), and every ladder operation — compaction, extraction,
// remainders — reads keys from the records and moves runs of records or
// streams records, never decoding them. Where the block lives depends on
// whether the segment has a file, not on a flag. Without one — every segment
// in RAM mode, and a durable segment until its file is written — a segment
// is resident: an ordered list of runs, each naming consecutive records of
// one of its blocks. Folds come from successive stretches of the stream, so
// a merged segment holds about one run per block: a checkpointed span costs
// what the codec makes of it (~113 B, not a decoded span's 136-byte header,
// its tag and metric entries and its share of a blob string), a merge moves
// O(runs), not a reference per span, and nothing holds a pointer for the
// collector to follow; a block leaves with the last run that names it, and
// one under half referenced gives its records up to a gathered block. Once
// its file is written a durable segment is filed: it drops its blocks and
// runs, keeps the file's layout and string blob (~0.2 B a span), and reads
// its records from the file a window at a time, each window a validated span
// block, so the heap holds a fraction of a byte per durable folded span and
// the file the rest. Both kinds are read one way — a cursor over the runs —
// and keep one directory: per 64 KB window of records, resident block's or
// file's, the first begin, the latest end and the correlation-id buckets a
// repair asks about. A block builds it once when it is held, and a fresh
// fold's file takes its block's. A straggler's repair reads a segment
// through it, stepping over every window it rules out, so what it costs
// grows with the runs and windows of the history, not its records. A compaction only plans and merges in memory; a durable
// survivor is written once, by a streaming k-way merge of all its inputs,
// resident or filed, walked once — each record goes to the file, and into
// its directory, as the merge hands it out, and the store writes the header
// last (segio.Store.WriteGathered) — and a repair's remainder streams from
// its source the same way; recovery validates one file at a time and
// installs it filed.
//
// Every durable write goes through one step (commit), after a fold, a
// reopening repair and at the end of recovery, under one ordering rule:
// first the segments whose files only add spans to disk — fresh folds,
// resident merges, compaction survivors — for until then the WAL records
// that carried their spans are the only copy; then, when asked (by the
// fold-time rotation rule, always after a reopen or a recovery), the WAL
// rotates onto a snapshot of everything unfolded and the files reopens
// emptied are deleted; only then the remainders reopens left, whose writes
// delete spans the new snapshot now carries. With no store armed — none
// attached yet, as through recovery's replay, or a latched error — the step
// writes nothing and a planned survivor dissolves back into its inputs.
//
// Recovery dedups its replay against one set, the ids of the spans the WAL
// carries — an id per WAL span, not per folded span: a segment record kept
// takes its id out (segments win), and so does each replayed span (the first
// copy wins). The store is attached once the replay is through. The release
// floor is one key that only rises: the drain raises it, relive raises it
// past the folded spans it takes back, and recovery raises it to the
// snapshot's floor and to the latest folded span. A stream has one
// durability latch, DurabilityErr: the first failed write or read of its
// store sets it, and so does OpenStream when the store cannot open or
// recover.
//
// A read ([StreamCorrelator.View]) holds the correlator's mutex only to pin
// the immutable segment list — holding every file in it open, so a
// compaction that deletes one does not cut the read short — and copy the
// live tail's headers; after it is released, one k-way merge over the
// segments' records and the live run hands each span, in canonical order, to
// a sink, and the view's Close lets go of the files. The binary reply of
// /api/correlated and /api/trace is one sink: it gathers each record into
// the frame with its offsets rebased and its owned flag cleared, in two
// passes (strings and tables first, so the frame's length is known; then the
// records, written ~64 KB at a time), so nothing is decoded and the frame is
// never held whole. A decode sink serves everything that wants Spans — JSON
// replies, SnapshotTrace, recovery's observer replay, which it hands over
// 4096 spans at a time — with fresh copies. A reopen decodes only the spans
// it takes back. A failed read of a segment file latches DurabilityErr like
// a failed write and fails the read that hit it; the file and the WAL still
// hold every acknowledged span.
//
// Three further mechanisms make unbounded runs flat-cost. Segments compact
// on a geometric (size-tiered) schedule: whenever two size-adjacent segments are within
// 2x of each other they merge, so the segment sizes form a doubling
// ladder — ~log2 of the checkpointed span count — and each span pays
// O(log n) amortized merge work over the stream's life. Degraded windows
// close at a size bound (maxWindowSpans, 4096 spans) and chain
// successors seeded from the ancestor stacks, so sustained pipelined
// overlap — under which a window would otherwise never close — cannot
// stall the fold horizon; chaining is exact, because every container of a
// deferred span has already been released into its window. And a
// correlation-id retention horizon (StreamOptions.CorrRetain, sized to
// the device queue depth) ages resolved launch entries out of the
// correlation table and finalizes pending execution spans stuck behind
// it, so neither table grows with total launches — the one documented
// divergence from batch equality: an execution span arriving later than
// the horizon resolves by containment rather than correlation id.
//
// The Retain fold cadence, window chaining and the CorrRetain horizon are
// what bound the live state; [StreamCorrelator.Load] itemizes where it sits
// (buffered reorder window, pending executions, window spans,
// released-not-folded history) for stats endpoints. The correlator is not an
// admission input: its live count falls only when new input is released and
// folded, so shedding on it could refuse the very input that would drain it.
// HTTP admission sheds (429 + Retry-After) on in-flight budgets alone, which
// drain without new input. Backpressure composes with correctness: a batch
// admission sheds was never acknowledged and simply never arrives — its
// publisher retries it — and the stream-equals-batch property holds over the
// spans that did. Nothing between admission and the correlator sheds:
// xsp-server's tap blocks at its bound, so every acknowledged batch is fed.
//
// # Multi-tenant correlation
//
// The streaming pipeline shards by tenant: [OpenStream] opens one tenant's
// stream — its own StreamCorrelator, its own durable store and what
// recovery found in it — and streams share nothing, so feeds for distinct
// tenants (WAL fsyncs included) run concurrently across cores; within one
// tenant the correlator's own mutex keeps arrival order and every
// single-stream contract above intact. The open function handed to
// OpenStream gives the tenant its own segio store (internal/server maps the
// default tenant to the data-dir root — pre-tenant layouts recover
// unchanged — and every other tenant to tenants/<key>/), so tenants crash
// and recover independently; a store that fails to open or recover
// degrades that tenant to RAM-only, the error latched in the correlator
// OpenStream returns — the one latch a mid-stream durability error sets,
// and the same keep-ingesting posture. internal/server opens each tenant's
// stream as it builds the tenant, which holds the three results itself, in
// its one tenant table (trace.Table).
//
// # Allocation discipline on the hot path
//
// Both correlation paths mutate spans in place through the shared
// pointers the trace substrate hands out (the trace.Memory.Trace
// aliasing contract; spans themselves live in trace.SpanStore arenas),
// so correlating allocates no span copies. A correlator that is the only
// holder of its spans needs no copy: cmd/xsp-server's is the tenant's one
// span store, in every mode, and its raw [StreamCorrelator.View] — every
// resolver-assigned link reading zero, on the copies and in the records —
// serves /api/trace what was published, before and after a restart. The StreamCorrelator
// additionally draws every interval-tree node — degraded windows and
// straggler repairs both — from a per-correlator free-list pool
// (internal/interval.Pool): a closed window releases its trees back and
// the next window rebuilds from recycled nodes, so sustained pipelined
// overlap runs with ~0 tree-node allocations per span at steady state.
// A released span costs one append to its level's run and no allocation of
// its own.
//
// The correlator owns what it is fed only when told so. A batch fed by
// [StreamCorrelator.FeedOwned] is the correlator's, slice and spans, each
// span's Tags and Metrics arrays included: the slice goes back to the trace
// package's free list once its spans are placed, and each span's slot and
// entry arrays once a fold has encoded the span into its checkpoint block,
// from where the next recycling decode refills them (trace.RecycleSpans).
// internal/server feeds every batch its ingest half
// decoded this way, through the tap or at the ack barrier — durable, with
// the span block the batch arrived in lent alongside, which the WAL logs as
// it is; a batch fed without one (JSON, FeedLogged) is encoded once for the
// WAL, into a buffer the correlator reuses. Everything else is
// lent and never recycled: Feed and FeedLogged (Session and Application, the
// tests), recovery's replay — segio's Recovery keeps its batches — and the
// spans live when an owned batch first arrives. Nothing the correlator keeps
// past a fold points at a folded span: the ancestor stacks, the released runs
// and the parented set let go of it in the fold, and the release floor is the
// correlator's own copy of its compare key. A view copies the live tail's
// headers and their tag and metric entries under the mutex
// (trace.CloneHeaders), so what it reads is its own after a fold recycles
// the spans it copied; names, sources and the entries' strings are
// substrings of a decoded batch's blob, which is never recycled.
// TestStreamAllocBudget pins the whole Feed path to a checked-in
// allocs-per-span budget — and, in the server's configuration, bytes per
// span too, fed lent and, with the decode in the loop, fed owned — and
// BenchmarkIngestToCorrelate measures it end to end from the wire.
//
// Leveled experimentation (Section III-C) runs the model once per
// profiling level so every level's latencies are read from the run where
// they are accurate.
package core
