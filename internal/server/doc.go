// Package server is the XSP tracing server as a value: New(Config) builds
// it, it is an http.Handler while it lives, and Close ends it. cmd/xsp-server
// binds Config to flags and owns the listener and the signals; tests build
// the same server in-process. This comment is the one description of what
// the server does.
//
// Tracers in other processes POST spans to /api/spans; the aggregated
// timeline trace is read back from /api/trace, and /api/reset clears it.
//
// The server is multi-tenant: requests carrying an X-Tenant header (or
// ?tenant= query parameter) route to that tenant's independent ingest
// domain — its own batch-dedup window, streaming correlator,
// and durable state — and requests carrying neither route to the
// "default" tenant with exactly the single-tenant behavior this server
// always had. Every /api endpoint resolves the tenant the same way;
// GET /api/tenants lists the tenants the process holds, in the order they
// were opened. Tenants are created lazily on first write, and distinct
// tenants share nothing on the feed path, so a multi-tenant ingest load
// spreads across cores (WAL fsyncs included) while each tenant keeps strict
// per-tenant ordering and exactly-once dedup. Everything held for one key
// is one tenant value, the tenant's one owner: its correlator, store and
// recovery report (core.OpenStream, called as the tenant is built), its tap
// and analysis engine, and the ingest half it builds around itself — it is
// the trace.Consumer that ingest half hands every accepted batch to and
// reads /api/trace and its backlog from. The tenants live in the package's
// one tenant table, a trace.Table that the wire half (trace.Server: decode,
// dedup, admission, /api/spans, /api/trace) routes through. A tenant is
// built once, before the table lists it, however many requests race to mint
// it, and reads never mint one. The batches the ingest half decodes are the
// tenant's alone, so it feeds them to its correlator owned
// (core.StreamCorrelator.FeedOwned), through the tap or at the ack barrier:
// once a fold has encoded a span its slot goes back to the trace free list,
// and the next decode, of any tenant, refills it. At the ack barrier a
// binary batch also lends the span block it arrived in, which the WAL logs
// as it is; the frame goes back to its pool once the feed returns.
//
// The server always correlates: a core.StreamCorrelator per tenant takes
// every accepted batch and resolves span parents online as batches arrive,
// instead of leaving correlation to whoever fetches the trace. The
// correlated view is served from /api/correlated; GET it with ?flush=1 to
// finalize pending work (device-only executions, buffered reordered
// arrivals, stragglers — stragglers repair a bounded region, not the
// whole trace, and one reaching behind the checkpoint horizon takes just
// that region's spans back out of it: the stats document's stream.Reopens
// counts those repairs) exactly as a batch correlation would. /api/trace keeps
// serving the spans as published, from the same store — the correlator
// links the decoded spans themselves, a streamed span is held once, and
// /api/trace is its history with its links masked out: every batch whose 202
// has returned and, durable, everything recovered (there is no raw store
// beside the history in any mode) — and /api/reset
// clears the addressed tenant's dedup window and streaming state together — and
// only that tenant's. ReorderWindow sets how much cross-shard arrival skew
// (in virtual-clock duration) the stream absorbs in order, and Retain
// bounds the live correlator state on a long-running server: finalized
// history older than the retain window folds into immutable checkpoint
// segments (POST /api/checkpoint folds on demand) that /api/correlated
// merges back seamlessly. For always-on ingest, degraded windows close at a
// fixed span bound and chain successors, keeping checkpoints flowing under
// sustained pipelined overlap, and CorrRetain ages correlation-id entries
// out past the device queue depth, so no table grows with total launches;
// batches POSTed with an X-Batch-Id header
// ingest exactly once across client retries. A batch holding a span that
// ends before it begins is refused whole with a 400.
//
// Live analyses are always on: each tenant's analysis.Online engine
// observes its correlator's accepted spans exactly once, recovered history
// included, classifying kernels against GPU, and GET
// /api/analysis[/layers|launchgaps|memcpy|roofline] serves the paper's
// analyses as JSON or, with ?watch=1 or Accept: text/event-stream, as
// server-sent events every ?interval= (a millisecond at least).
//
// Overload control: MaxInflightSpans and MaxInflightBytes give the
// server an admission budget — past it, span POSTs are shed with 429 and a
// Retry-After hint (RetryAfter) instead of accepted unboundedly. Both budgets
// drain without new input — handlers finish and the tap worker empties its
// queue — so a shed tenant is always admitted again. The byte budget is
// process-wide; the span budget is per tenant, so an overdriven tenant sheds
// alone while its neighbors keep landing batches first-try. Admission is the
// one overload rule; it never reads the correlator, whose live state is
// bounded by Retain, CorrRetain and window chaining instead. In RAM mode each
// tenant's correlator tap runs asynchronously behind a bounded queue
// (trace.DefaultTapQueue spans) that never sheds: a full queue holds the
// handler, the in-flight budgets fill, and admission answers 429. So a batch that got its 202 is in /api/trace,
// /api/correlated and /api/analysis alike, and shed clients retry safely
// under their batch ids. RetryAfter is the hint on every push-back, a 503
// for a retry racing its still-decoding original or refused by its store
// included, budgets set or not, and Retry-After is the only header a
// push-back carries. While the byte budget is set a span
// POST must declare its length: a chunked body has nothing to reserve and is
// a 411 before it is read.
//
// Stats: GET /api/overload and GET /api/durability serve one document, the
// one place the server publishes its counters, in either mode: the
// server's admission counters and DataDir, and a row per tenant with its
// admission counters, tap (RAM mode), correlator load and progress
// (core.StreamStats as stream), and, durable, its directory, store stats,
// latched error (its correlator's one latch, core's DurabilityErr, which a
// store that never opened sets too) and recovery outcome. No data-path reply carries a counter;
// /api/analysis's X-Analysis-Spans and X-Analysis-GPU describe the
// snapshot they come with.
//
// Durability: DataDir names a directory the streaming state survives
// crashes in. The default tenant's store
// lives at the directory root — a data directory written by a pre-tenant
// build recovers as the default tenant unchanged — and every other
// tenant's under tenants/<key>, so one tenant's WAL, segments, and
// quarantine never touch another's; each recovers independently at boot.
// Every accepted span batch is fsynced to its tenant's write-ahead log
// before its 202 is written — the ack is the durability barrier — and
// checkpoint folds spill to immutable, checksummed segment files, so on
// restart the server recovers each tenant's exact pre-crash correlated
// state (and its batch-dedup window: a client retrying a batch the
// crashed process acknowledged gets the duplicate ack, not a second
// publish). The stats document reports every tenant's store stats and
// recovery outcome; POST /api/reset wipes the addressed tenant's durable
// state along with its in-memory state. In durable mode correlators
// consume batches synchronously at the ack barrier; there is no tap.
//
// # Lifecycle
//
// A tenant goes open → recover → serve → reset → close. New opens the
// default tenant and, durable, every tenant with a directory; any other
// opens on the first request that writes to it (reads never mint one).
// Opening a durable tenant is recovering it: segments install, the WAL's
// live tail replays through the correlator (and the analysis engine), the
// dedup window is seeded, and the store rotates onto a fresh WAL before the
// tenant takes its first batch. A store that will not open or recover
// degrades that tenant to RAM-only, its error latched in the correlator and
// served in the stats document; it does not fail New. Reset returns a tenant to empty in place. Close closes
// them all, once.
//
// Shutdown order, as cmd/xsp-server runs it on SIGTERM or SIGINT: the
// listener's base context is cancelled, which ends the server-sent-event
// watchers; http.Server.Shutdown stops accepting and waits, up to a fixed
// deadline, for the requests in flight; then Close refuses anything still
// arriving with 503, waits for what is left, and closes every tenant's tap
// — draining its queue into the correlator — and then its store. No final
// fold or rotation runs: every acknowledged batch was fsynced before its
// 202, so a closed directory and a SIGKILLed one recover to the same state
// and the same dedup window.
package server
