// Package trace implements the distributed-tracing substrate XSP is built
// on (Section III-A of the paper). Every profiler in the HW/SW stack is
// wrapped as a [Tracer]; each profiled event becomes a [Span] tagged with
// its stack level; spans are published to a tracing server (the in-process
// [Memory] collector, or [Server] over HTTP) which aggregates them into a
// single timeline [Trace].
//
// # Collection
//
// A [Memory] collector is one span slice behind one mutex: [Memory.Publish]
// appends, and [Memory.Trace] copies the slice and sorts the copy into
// canonical begin order ([CanonicalLess]) outside the lock — one scan when
// the spans arrived in order, as a single tracer publishes them. A Trace
// call observes every span whose Publish completed before it. A [Tracer]
// always publishes: leveled experimentation picks a run's levels by which
// tracers it builds (core.Session.Profile builds one per level of its
// LevelSet), not by switching tracers off.
//
// A server tenant is built around one [Consumer], handed to
// [Server.NewTenant]: every batch accepted by /api/spans (zero-ID spans get
// fresh server-side IDs first) goes to its Ingest before the 202, exactly
// once, which is how cmd/xsp-server feeds a core.StreamCorrelator for
// streaming correlation. The consumer must be concurrency-safe; batches
// from concurrent publishers arrive in an unspecified relative order.
// Nothing between the handler and the consumer sheds a batch, so the
// consumer is the tenant's store: its View is what /api/trace serves (a
// stream correlator's raw View), and the tenant holds no spans itself — a
// streamed span is held once.
//
// Ingest accounting: [ServerTenant.Received] counts the spans a tenant
// accepted over HTTP since the server started or since its last reset —
// the reset zeroes the counter together with the dedup window — and a failed
// [HTTPCollector.Flush] re-buffers its batch ahead of newer spans, so a
// transient server error delays publication instead of losing spans.
//
// # Overload control
//
// Every structure on the ingest path has an explicit bound and a defined
// shed behavior when it is reached; nothing grows with offered load.
//
//   - The tap queue. An [AsyncTap] in front of a consumer's correlator
//     (xsp-server's RAM tenants) lets publishers enqueue onto a queue
//     bounded at [TapOptions.Queue] spans while a single worker forwards
//     to the correlator, so the publish path decouples from its latency.
//     At the bound the tap sheds nothing: Publish waits for room. Behind
//     the HTTP handler that wait keeps the batch in flight, the admission
//     budgets below fill, and new POSTs are shed at the edge — the one
//     overload rule, so every acknowledged batch reaches the correlator.
//     An oversized batch is admitted when it has the queue to itself, so
//     one batch larger than the bound cannot wedge. The queue's depth is
//     its consumer's [Consumer] Backlog.
//   - In-flight request bytes and spans. [Server.SetAdmission] installs an
//     [AdmissionPolicy]: request bodies reserve their Content-Length
//     against MaxInflightBytes before being read (a chunked body, which
//     declares none, is a 411 while that budget is set), and decoded-but-unlanded
//     spans plus the consumer's backlog count against MaxInflightSpans. Past
//     either budget the POST is shed with 429 and a Retry-After hint; the
//     shed counters are [OverloadStats]. Both budgets drain without new input —
//     handlers finish, the tap worker empties its queue — so a shed tenant
//     is always admitted again; admission reads nothing else.
//   - The batch-dedup FIFO, bounded at [DedupWindow] ids.
//
// The safe-retry contract ties these together: a shed batch's id is never
// claimed (admission rejects either before the claim or after it with the
// claim released), so the client retry re-ships under the same id and
// lands exactly once when admitted. [HTTPCollector] implements the client
// half — [HTTPCollector.SetRetryPolicy] gives Flush capped exponential
// backoff with jitter, honoring a server Retry-After hint when it is
// longer, refusing eagerly (ErrBackoff) while inside the wait so callers
// never block, and dropping the head batch after
// [RetryPolicy.MaxAttempts] consecutive failures (counted in
// [HTTPCollector.Dropped]) so one poisoned batch cannot dam the backlog.
//
// Sizing the dedup FIFO: an in-flight (claimed, still decoding) id is
// rotated to the back of the FIFO rather than evicted — evicting it would
// let a concurrent duplicate land twice — so the cap only needs to cover
// *committed* batches that might still be retried. A retry arrives within
// MaxAttempts backoffs of the original, during which a client ships at
// most its in-flight batch count; DedupWindow (4096) therefore
// needs to exceed retrying-clients x batches-committed-per-retry-window,
// and sits orders of magnitude above any real schedule (a client retries
// one head batch at a time). The cap must merely stay above the count of
// concurrently decoding batches — bounded by admission itself — for
// eviction to make progress.
//
// [Memory.Trace] shares span pointers with the collector: in-place edits
// (the correlator rewriting ParentID) persist across reads; a caller that
// wants private spans clones them ([Span.Clone]). A span's payload — Name, Source, Tags, Metrics — is immutable after
// publish: readers walk the tag and metric entries without locks, and
// [CloneHeaders] (what every stream-correlator snapshot holds)
// copies the header fields and the entries and shares the strings.
//
// Tags and Metrics are flat pairs ([Tag], [Metric]) in insertion order, not
// maps: a span carries a handful, so [Span.Tag] and [Span.Metric] are short
// scans, and nothing hashes, allocates a table or iterates in a random order
// on the way from a socket to a fold. A key may repeat — the binary format
// does not forbid it — and the last entry with it is the one read,
// overwritten by [Span.SetTag] and shown by the JSON form, whose objects
// list each key once, sorted.
//
// # Multi-tenant ingestion
//
// One [Server] hosts many tenants, which live in a [Table] its caller
// owns and hands it ([NewServerOn]): one value per key, built once by the
// table's open function before it is inserted, listed in creation order,
// on the first write addressed to the key (reads never build one). The
// server reaches each tenant's [ServerTenant] — its consumer, dedup window
// and shed counters, built with [Server.NewTenant]. A request names its
// tenant
// three ways, in precedence order: the X-Tenant header ([TenantHeader]),
// a ?tenant= query parameter, or the key embedded in the wire payload
// itself (the version-2 binary frame, or the JSON envelope form) — a
// header that contradicts the payload is a 400, and a request naming no
// tenant lands on [DefaultTenant]. Tenant keys are validated
// ([ValidateTenant]) to be filesystem-safe, so a key can double as the
// tenant's durable subdirectory name.
//
// The admission split follows what each budget protects: request bytes
// are a process-wide resource, so MaxInflightBytes stays server-wide,
// while the span budget and the dedup window are per tenant — an
// overdriven tenant sheds 429s against its own budgets while its
// neighbors keep landing first-try, and [ServerTenant.OverloadStats]
// attributes the sheds. [ServerTenant.Reset] clears one tenant's counters
// and dedup window together and touches nothing else.
//
// The wire stays backward compatible: encoders emit the pre-tenant
// version-1 frame and bare JSON array whenever the tenant is the
// default, byte-for-byte what pre-tenant servers accept, and decoders
// accept both versions ([AppendBinaryFrameTenant], [Trace.Tenant]).
// [HTTPCollector.SetTenant] tags a collector's output;
// [FetchTraceTenant] scopes reads.
//
// # Arena span storage
//
// The wire decoders do not allocate spans one by one: a [SpanStore]
// carves them from chunked arenas (one allocation per 240 spans, the most
// that fits Go's largest small-object size class); [Interner] collapses the
// names and sources that repeat across thousands of spans into shared
// strings.
//
// The aliasing rule that makes this safe: the arena's *Span pointers are
// stable until their span is recycled, and only fields that never reorder a
// trace are mutable through them. Nothing mirrors a span's fields —
// the correlator rewrites ParentID in place through shared pointers (see
// the Memory.Trace contract above), and a copy would go silently stale.
// The Span structs stay authoritative.
//
// Recycling is opt-in and explicit. A span is recycled only by its one
// owner: a consumer it was handed to for good (core.StreamCorrelator's
// FeedOwned, which xsp-server's tenants feed every batch the ingest half
// decoded for them), once it holds no further use for the span — the
// correlator, once a fold has encoded it into a checkpoint block.
// [RecycleSpans] clears the slot and puts it on the process's one free list,
// bounded at 64 Ki slots and shared by every tenant, and [RecycleBatch] does
// the same for the batch's pointer slice; the decoders' stores (DecodeBinary,
// DecodeJSON) take a freed slice and freed slots before they carve a chunk,
// so a server in steady state decodes into the slots its folds gave back.
// Everything else a decode returns — spans fed to a Session or an
// Application, a test's, recovery's, a copying (Isolated) correlator's — is
// never recycled and is the garbage collector's, as before. A recycled span
// gives back its Tags and Metrics arrays with its slot: each array goes on
// the free list by length (one bucket per length up to 16, 16 Ki entries in
// all), and DecodeBinary hands each new span the arrays its record's tag and
// metric counts fit, in one locked pass, and carves only the shortfall, from
// one arena of exactly that size. So a span's entries are its owner's too,
// and a copy of a span that outlives it copies them: CloneHeaders does, and
// every view of a stream correlator's live tail is one. Names, sources and
// the entries' strings are substrings of the decoded batch's blob, which is
// never recycled, so they stay shared. Under the race detector a freed slot,
// and every freed entry, holds a poison pattern until a decode takes it, so
// a holder that outlives its span reads nonsense and the oracles that run
// under -race fail.
//
// # Binary wire format
//
// [AppendSpanBlock]/[DecodeSpanBlock] implement the columnar span-block
// codec — fixed 80-byte records, tag/metric tables, one shared string
// blob — and [AppendBinaryFrameTenant]/[DecodeBinary] wrap a block in a
// magic+version+length frame for transport. DecodeBinary materializes
// the batch straight into a SpanStore arena with every string a
// zero-copy substring of the blob and every span's tags and metrics carved,
// in table order, from one entry arena per block — a batch decodes in a
// fixed number of allocations, whatever its spans carry — which is what
// makes binary ingest on /api/spans several times cheaper than JSON. It
// hands the batch over in canonical order without sorting a pointer: the
// records' keys are read into a pooled array and ordered by [SortAdaptive]
// — an insertion sort bounded by a move budget, past which it falls back
// to an O(n log n) stable sort — and the slots are filled in key order, so
// a decoded batch also lies in canonical order in memory. SortAdaptive is
// the one sort of a span batch: SortByBegin, [Memory.Trace], [MergeRuns]'
// unsorted runs and core.StreamCorrelator's reorder buffer use it too. The
// encoder writes a span's entries in the order the span holds them, so the
// same spans always encode to the same bytes. The same block format is
// the durable store's on-disk representation (internal/segio delegates
// here), so wire, WAL, and segment bytes share one codec and one fuzzer
// ([ErrBadFrame] on any corruption, never a partial decode). Content
// negotiation — [ContentTypeBinary] vs [ContentTypeJSON] on POST,
// [AcceptsBinary] on GET ([WriteView] is the one reply every
// trace-serving endpoint gives, the binary one streamed from a [View]) —
// keeps JSON clients working against a binary-speaking server; the
// HTTPCollector itself always posts binary.
//
// # Ingress validation
//
// One rule is checked on the decoded spans of a POST, whichever encoding
// carried them: a span must not end before it begins. [Server] refuses a
// batch holding any span with End < Begin whole — 400 naming the first
// such span (its position in begin order, and its id), nothing published,
// tapped or logged, the batch claim and admission reservations released
// exactly as on a decode failure, so the corrected batch lands under the
// same id. End == Begin, a zero-length event, is valid. Consumers fed
// directly (core.StreamCorrelator.Feed) are not behind this check and keep tolerating such spans.
// FuzzHandleSpans holds the handler to the rest of the ingress contract
// under arbitrary methods, headers, declared lengths and bodies: no
// panic, no partial publish, no leaked batch claim or reservation.
package trace
