// Package client is the Go client for arteryd's job API: submission with
// retry-and-jittered-backoff on 429/5xx (honoring Retry-After), status
// polling, and a streaming iterator over per-shot NDJSON updates that
// transparently reconnects and resumes from the last event it delivered.
// Wire types are shared with the server and the coordinator (artery/api),
// so the three cannot drift.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"artery/api"
)

// Wire types re-exported for callers.
//
// The canonical definitions live in artery/api; these aliases keep
// client-side code importable without a second import.
type (
	// Request is a job submission (see api.Request).
	Request = api.Request
	// RequestOptions carries the optional calibration settings.
	RequestOptions = api.RequestOptions
	// JobStatus is a job's status document.
	JobStatus = api.JobStatus
	// Result is a finished job's result.
	Result = api.Result
	// ShotEvent is one per-shot streaming update.
	ShotEvent = api.ShotEvent
)

// RetryInfo describes one retried attempt, for observability hooks.
type RetryInfo struct {
	// Status is the HTTP status that triggered the retry (429 or 5xx),
	// or 0 for a transport error.
	Status int
	// RetryAfter is true when the response carried a Retry-After header.
	RetryAfter bool
	// Delay is the backoff the client will sleep before the next attempt.
	Delay time.Duration
}

// Client talks to one arteryd base URL. A Client is safe for concurrent
// use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	maxWait time.Duration
	waitCap time.Duration // cap on an honored Retry-After (0 = maxWait)
	onRetry func(RetryInfo)
	sleep   func(ctx context.Context, d time.Duration) error // test seam

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

// sleepCtx sleeps for d unless ctx ends first, returning ctx's error so
// backoffs never outlive a canceled caller.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (timeouts,
// transports).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTimeout sets the per-request timeout of the default HTTP client
// (ignored after WithHTTPClient). Streams override it — they live as long
// as the job.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.hc.Timeout = d } }

// WithRetries bounds the retry attempts for Submit and the reconnect
// attempts of a Stream (default 5).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base and cap of the jittered exponential backoff
// (defaults 100ms, 5s).
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.backoff, c.maxWait = base, max }
}

// WithRetryHook installs an observer invoked before every retry sleep.
func WithRetryHook(fn func(RetryInfo)) Option { return func(c *Client) { c.onRetry = fn } }

// WithRetryAfterCap bounds how long a server-sent Retry-After header can
// make Submit sleep (default: the WithBackoff cap). An overloaded — or
// chaos-degraded — server quoting a huge estimate must not pin a caller
// that has somewhere better to go (the coordinator fails a shard over to
// another backend once its client gives up).
func WithRetryAfterCap(d time.Duration) Option { return func(c *Client) { c.waitCap = d } }

// New builds a client for the given base URL (e.g.
// "http://127.0.0.1:7717"). The URL is validated here — an unparseable
// or schemeless base fails at construction, not on the first request.
func New(base string, opts ...Option) (*Client, error) {
	nb, err := normalizeBase(base)
	if err != nil {
		return nil, err
	}
	c := &Client{
		base:    nb,
		hc:      &http.Client{Timeout: 30 * time.Second},
		retries: 5,
		backoff: 100 * time.Millisecond,
		maxWait: 5 * time.Second,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		sleep:   sleepCtx,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// MustNew is New for call sites that prefer a panic over an error (tests,
// package-level variables, CLIs that validated the flag already).
func MustNew(base string, opts ...Option) *Client {
	c, err := New(base, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// normalizeBase validates a base URL and strips its trailing slash.
func normalizeBase(base string) (string, error) {
	b := strings.TrimRight(base, "/")
	u, err := url.Parse(b)
	if err != nil {
		return "", fmt.Errorf("client: invalid base URL %q: %v", base, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("client: base URL %q must use http or https, got scheme %q", base, u.Scheme)
	}
	if u.Host == "" {
		return "", fmt.Errorf("client: base URL %q has no host", base)
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("client: base URL %q must not carry a query or fragment", base)
	}
	return b, nil
}

// Base returns the normalized base URL (no trailing slash).
func (c *Client) Base() string { return c.base }

// Submit posts a job. Over-capacity (429) and transient server errors
// (5xx) are retried with jittered exponential backoff — a 429's
// Retry-After header, when present, replaces the exponential delay — up
// to the configured retry budget. 4xx errors other than 429 fail fast.
func (c *Client) Submit(ctx context.Context, req Request) (*JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var last error
	for attempt := 0; ; attempt++ {
		st, retryable, err := c.trySubmit(ctx, body)
		if err == nil {
			return st, nil
		}
		last = err
		if !retryable || attempt >= c.retries {
			return nil, last
		}
		info := c.delay(attempt, err)
		if c.onRetry != nil {
			c.onRetry(info)
		}
		if err := c.sleep(ctx, info.Delay); err != nil {
			return nil, err
		}
	}
}

// httpError is a non-2xx response.
type httpError struct {
	status     int
	msg        string
	code       string // typed api.ErrorBody code ("evicted", ...)
	retryAfter time.Duration
	hasRetry   bool
}

func (e *httpError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.status, e.msg)
}

// IsGone reports whether err is the server's typed 410 answer for a job
// id that existed but has been evicted (and, without a durable store, is
// gone for good). Distinguishable from a 404 for an id that never
// existed: retrying a Gone id is pointless, resubmitting the request —
// same seed, byte-identical result — is the remedy.
func IsGone(err error) bool {
	he, ok := err.(*httpError)
	return ok && he.status == http.StatusGone && he.code == api.CodeEvicted
}

// trySubmit performs one POST attempt; retryable marks 429/5xx/transport
// failures.
func (c *Client) trySubmit(ctx context.Context, body []byte) (st *JobStatus, retryable bool, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		return nil, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		var js JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
			// The job was accepted but its status document did not survive
			// the wire (a truncated or corrupted response). Retry: with
			// deterministic jobs a blind resubmission is harmless — the
			// duplicate run produces byte-identical results.
			return nil, true, fmt.Errorf("client: decoding 202 response: %w", err)
		}
		if js.ID == "" {
			return nil, true, fmt.Errorf("client: 202 response carries no job id")
		}
		return &js, false, nil
	}
	he := httpErrorFrom(resp.StatusCode, resp.Body)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, perr := strconv.Atoi(ra); perr == nil {
			he.retryAfter = time.Duration(secs) * time.Second
			he.hasRetry = true
		}
	}
	retryable = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
	return nil, retryable, he
}

// delay computes the next sleep: the server's Retry-After estimate when
// a 429 carried one (capped by WithRetryAfterCap), else exponential
// backoff from the base (capped by WithBackoff's max) — either way
// jittered into [d/2, d] to decorrelate a fleet of clients hammering a
// full queue.
func (c *Client) delay(attempt int, err error) RetryInfo {
	var info RetryInfo
	d := c.backoff << uint(attempt)
	cap := c.maxWait
	if he, ok := err.(*httpError); ok {
		info.Status = he.status
		info.RetryAfter = he.hasRetry
		if he.hasRetry && he.retryAfter > 0 {
			d = he.retryAfter
			if c.waitCap > 0 {
				cap = c.waitCap
			}
		}
	}
	if d > cap {
		d = cap
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d/2) + 1))
	c.mu.Unlock()
	info.Delay = d/2 + jitter
	return info
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpErrorFrom(resp.StatusCode, resp.Body)
	}
	var js JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		return nil, err
	}
	return &js, nil
}

// Wait polls a job until it reaches a terminal state (done, failed or
// canceled), the context expires, or the server disappears.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		js, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if api.Terminal(js.State) {
			return js, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// Metrics fetches the server's /metrics Prometheus exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", httpErrorFrom(resp.StatusCode, resp.Body)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// httpErrorFrom builds the typed error for a non-2xx response, parsing
// the api.ErrorBody message and machine-readable code.
func httpErrorFrom(status int, r io.Reader) *httpError {
	he := &httpError{status: status, msg: "(no error body)"}
	var eb api.ErrorBody
	if err := json.NewDecoder(io.LimitReader(r, 1<<16)).Decode(&eb); err == nil && eb.Error != "" {
		he.msg, he.code = eb.Error, eb.Code
	}
	return he
}
