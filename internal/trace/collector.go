package trace

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// HTTPCollector publishes spans to a remote tracing server over HTTP. It
// buffers spans and ships them in batches to keep publishing overhead away
// from the measured path, as XSP does (spans are published asynchronously
// to avoid added overhead).
//
// Failed POSTs retry with capped exponential backoff and jitter (see
// RetryPolicy): after a failure, Flush refuses to re-POST — returning an
// ErrBackoff error without touching the network — until the backoff
// (or the server's Retry-After hint, whichever is longer) has elapsed, so
// a fleet of collectors facing an overloaded server paces and spreads its
// retries instead of hammering in lockstep.
type HTTPCollector struct {
	baseURL string
	client  *http.Client

	mu      sync.Mutex
	tenant  string // ingest domain batches are tagged with; "" means DefaultTenant
	buf     []*Span
	pending []httpBatch // batches whose POST failed, oldest first, awaiting retry

	policy   RetryPolicy
	now      func() time.Time // injectable clock, for tests
	rng      *mrand.Rand      // jitter source; guarded by mu
	retryAt  time.Time        // earliest next POST attempt; zero when not backing off
	attempts int              // consecutive failed attempts for the head batch
	backoff  time.Duration    // current backoff step, pre-jitter

	droppedBatches int
	droppedSpans   int
}

// SetTenant routes subsequent batches to the named tenant: every POST
// carries the key both in the X-Tenant header and inside the binary frame's
// tenant field, so the batch stays routable even through an intermediary
// that strips headers. The empty key (the default) restores tenantless
// publishing — byte-for-byte the pre-tenant wire — which servers route to
// DefaultTenant. The key is applied when a batch is POSTed, not when it is
// cut, so set it before publishing the spans it should cover (pending
// retries re-ship under the current key).
func (c *HTTPCollector) SetTenant(key string) error {
	if err := ValidateTenant(key); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenant = key
	return nil
}

// RetryPolicy shapes HTTPCollector's retry pacing after a failed POST.
type RetryPolicy struct {
	// BaseDelay is the first backoff step; each consecutive failure
	// doubles it (jittered into [delay/2, delay], so synchronized
	// collectors spread out) up to MaxDelay. Zero disables backoff: Flush
	// may retry immediately, though an explicit Retry-After from the
	// server is still honored.
	BaseDelay time.Duration

	// MaxDelay caps the doubling. Zero leaves it uncapped.
	MaxDelay time.Duration

	// MaxAttempts is the consecutive-failure cap for one batch: when the
	// head batch has failed this many times in a row it is dropped —
	// shed at the client, counted in Dropped — and Flush moves on, so a
	// poisoned or permanently rejected batch cannot dam every span
	// behind it forever. Zero retries forever.
	MaxAttempts int
}

// DefaultRetryPolicy is the pacing NewHTTPCollector installs: backoff
// from 100ms to 10s, never dropping a batch.
var DefaultRetryPolicy = RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 10 * time.Second}

// ErrBackoff is wrapped by the error Flush returns when it refuses to
// POST because the retry backoff window has not elapsed: nothing new went
// wrong, the collector is pacing itself. Callers loop-flushing against an
// overloaded server can errors.Is for it to distinguish pacing from fresh
// failures.
var ErrBackoff = fmt.Errorf("trace: collector in retry backoff")

// httpBatch is a formed span batch with the id that makes its retries
// idempotent: the id is assigned once, when the batch is cut from the
// buffer, and survives every retry, so the server can recognize a re-ship
// of a batch it already committed (a 202 lost in transit) and acknowledge
// without publishing twice.
type httpBatch struct {
	id    uint64
	spans []*Span
}

// newBatchID returns a random nonzero batch id. Random — not the
// per-process span counter: collectors in different processes share one
// server's dedup table, and counters restarting at 1 in every process
// would collide, silently dropping the second process's batches as
// duplicates.
func newBatchID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// No entropy: fall back to the process-local counter rather
			// than fail the flush; uniqueness degrades to per-process.
			return NewSpanID()
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// NewHTTPCollector returns a collector that ships spans to the tracing
// server rooted at baseURL (e.g. "http://127.0.0.1:7777"), retrying
// failed flushes under DefaultRetryPolicy.
func NewHTTPCollector(baseURL string) *HTTPCollector {
	return &HTTPCollector{
		baseURL: baseURL,
		client:  http.DefaultClient,
		policy:  DefaultRetryPolicy,
		now:     time.Now,
		rng:     mrand.New(mrand.NewSource(int64(NewSpanID())*2654435761 + time.Now().UnixNano())),
	}
}

// SetHTTPClient replaces the HTTP client flushes are posted with (nil
// restores http.DefaultClient). Many collectors hammering one server —
// the multi-tenant fleet shape — want a shared Transport with
// MaxIdleConnsPerHost sized to the collector count: the default
// transport keeps only two idle connections per host, so every
// collector past the second pays a fresh TCP handshake per flush.
func (c *HTTPCollector) SetHTTPClient(client *http.Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if client == nil {
		client = http.DefaultClient
	}
	c.client = client
}

// SetRetryPolicy replaces the collector's retry pacing. A zero policy
// restores the pre-backoff behavior: retry on every Flush, immediately,
// forever (the server's explicit Retry-After hints are still honored).
func (c *HTTPCollector) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policy = p
	c.attempts, c.backoff, c.retryAt = 0, 0, time.Time{}
}

// Backlog returns the spans buffered or awaiting retry — zero means
// everything published has been acknowledged by the server.
func (c *HTTPCollector) Backlog() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.buf)
	for _, b := range c.pending {
		n += len(b.spans)
	}
	return n
}

// Dropped reports the batches (and their spans) shed client-side by the
// RetryPolicy.MaxAttempts cap, ever.
func (c *HTTPCollector) Dropped() (batches, spans int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.droppedBatches, c.droppedSpans
}

// Publish buffers spans for the next Flush.
func (c *HTTPCollector) Publish(spans ...*Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf, spans...)
}

// Flush ships every buffered span to the server, retrying batches from
// earlier failed flushes first (oldest first, ahead of spans published in
// the meantime, preserving each tracer's nearly-sorted publish order). It
// returns the number of spans shipped. On any failure — transport error or
// server rejection — the unshipped batches are kept for the next Flush, so
// a transient server error never loses spans (except under the explicit
// RetryPolicy.MaxAttempts cap, which sheds the repeatedly failing head
// batch and counts it in Dropped). Delivery is
// exactly-once against this package's Server: each batch carries an id
// assigned when it was cut and kept across retries, and the server
// acknowledges a batch id it has already committed without re-publishing
// — so a 202 lost in transit no longer duplicates the batch on retry.
//
// After a failure, Flush paces itself: until the RetryPolicy backoff (or
// the server's Retry-After hint, whichever is longer) has elapsed it cuts
// the buffer into a pending batch but touches no network, returning an
// error wrapping ErrBackoff. Flush never sleeps — pacing is enforced by
// refusal, so a publisher thread calling Flush is delayed by at most one
// POST.
func (c *HTTPCollector) Flush() (int, error) {
	c.mu.Lock()
	if len(c.buf) > 0 {
		c.pending = append(c.pending, httpBatch{id: newBatchID(), spans: c.buf})
		c.buf = nil
	}
	if !c.retryAt.IsZero() {
		if wait := c.retryAt.Sub(c.now()); wait > 0 {
			c.mu.Unlock()
			return 0, fmt.Errorf("%w (%v remaining)", ErrBackoff, wait)
		}
	}
	batches := c.pending
	c.pending = nil
	c.mu.Unlock()

	shipped := 0
	for i, b := range batches {
		retryAfter, err := c.post(b)
		if err != nil {
			c.mu.Lock()
			c.attempts++
			dropped := c.policy.MaxAttempts > 0 && c.attempts >= c.policy.MaxAttempts
			keep := i
			if dropped {
				// The head batch exhausted its attempts: shed it here, so a
				// permanently rejected batch cannot dam everything behind
				// it. Its spans remain counted in Dropped.
				c.droppedBatches++
				c.droppedSpans += len(b.spans)
				c.attempts, c.backoff, c.retryAt = 0, 0, time.Time{}
				keep = i + 1
			} else {
				c.scheduleRetry(retryAfter)
			}
			// The unshipped batches go back, ahead of batches cut while
			// this Flush ran.
			rest := make([]httpBatch, 0, len(batches)-keep+len(c.pending))
			rest = append(rest, batches[keep:]...)
			rest = append(rest, c.pending...)
			c.pending = rest
			c.mu.Unlock()
			if dropped {
				return shipped, fmt.Errorf("trace: batch dropped after %d attempts: %w", c.policy.MaxAttempts, err)
			}
			return shipped, err
		}
		shipped += len(b.spans)
		c.mu.Lock()
		c.attempts, c.backoff, c.retryAt = 0, 0, time.Time{}
		c.mu.Unlock()
	}
	return shipped, nil
}

// scheduleRetry sets the earliest next POST attempt after a failure:
// capped exponential backoff, jittered into [delay/2, delay], never
// earlier than the server's Retry-After hint. Callers hold c.mu.
func (c *HTTPCollector) scheduleRetry(retryAfter time.Duration) {
	var d time.Duration
	if p := c.policy; p.BaseDelay > 0 {
		if c.backoff == 0 {
			c.backoff = p.BaseDelay
		} else {
			c.backoff *= 2
		}
		if p.MaxDelay > 0 && c.backoff > p.MaxDelay {
			c.backoff = p.MaxDelay
		}
		half := c.backoff / 2
		d = half + time.Duration(c.rng.Int63n(int64(half)+1))
	}
	if retryAfter > d {
		d = retryAfter
	}
	if d > 0 {
		c.retryAt = c.now().Add(d)
	}
}

// post ships one batch as a binary frame (ContentTypeBinary), with its
// idempotency id in the batch-id header. On a push-back response it also
// returns the server's Retry-After hint, so the retry schedule can honor
// it.
func (c *HTTPCollector) post(b httpBatch) (time.Duration, error) {
	c.mu.Lock()
	tenant := c.tenant
	client := c.client
	c.mu.Unlock()
	req, err := http.NewRequest(http.MethodPost, c.baseURL+"/api/spans", bytes.NewReader(AppendBinaryFrameTenant(nil, tenant, b.spans)))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.Header.Set(batchIDHeader, strconv.FormatUint(b.id, 16))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("trace: publishing spans: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return parseRetryAfter(resp.Header.Get("Retry-After")), fmt.Errorf("trace: server rejected spans: %s", resp.Status)
	}
	return 0, nil
}

// parseRetryAfter decodes a numeric Retry-After value — integer seconds
// per the HTTP spec, or this package's non-standard sub-second decimals.
// The HTTP-date form (and anything else unparseable) yields zero: the
// client falls back to its own backoff.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.ParseFloat(h, 64)
	if err != nil || secs < 0 || secs > 3600 {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}

// FetchTraceTenant retrieves one tenant's aggregated trace from a tracing
// server; the empty tenant reads the default tenant. It asks for the binary
// encoding (Accept) and decodes by the response's Content-Type, so it
// speaks binary to this package's Server and JSON to anything older.
func FetchTraceTenant(client *http.Client, baseURL, tenant string) (*Trace, error) {
	if err := ValidateTenant(tenant); err != nil {
		return nil, err
	}
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequest(http.MethodGet, baseURL+"/api/trace", nil)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	req.Header.Set("Accept", ContentTypeBinary+", "+ContentTypeJSON)
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("trace: fetching trace: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace: server error: %s", resp.Status)
	}
	if mt, _, err := mime.ParseMediaType(resp.Header.Get("Content-Type")); err == nil && mt == ContentTypeBinary {
		return DecodeBinary(resp.Body)
	}
	return DecodeJSON(resp.Body)
}
