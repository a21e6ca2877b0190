// Package riskclient is the production-grade client for riskd
// (internal/server): the transport a coordinator will use to talk to worker
// shards, and the reference implementation of how any caller should treat
// an assessment service that is allowed to fail.
//
// Three mechanisms compose, in request order:
//
//   - A consecutive-failure circuit breaker. After Threshold transport-level
//     or 5xx failures in a row the breaker opens and calls fail immediately
//     with ErrCircuitOpen — no socket is touched, so a dead peer costs
//     microseconds instead of timeouts. After Cooldown one half-open probe
//     is let through; its success closes the breaker, its failure re-opens
//     it for another cooldown.
//   - Budget-aware retries with exponential backoff and full jitter.
//     Transport errors and 5xx responses retry up to MaxAttempts; the delay
//     before attempt k is uniform in [0, min(MaxBackoff, BaseBackoff·2^k)),
//     which decorrelates a thundering herd of retrying clients. A 503's
//     Retry-After header overrides the computed backoff — the server derives
//     it from its observed compute latency (EWMA), so honoring it waits
//     exactly as long as the server thinks recovery takes. All waiting is
//     bounded by the caller's context. 4xx responses never retry: the
//     request itself is wrong, and repeating it cannot help.
//   - Retries resend identical bytes. Assessments are pure functions of
//     their request, so a retry is always safe; the client encodes the
//     request once and sends that body on every attempt, and riskd's
//     content-addressed cache (keyed on the dataset digest and options)
//     collapses duplicate deliveries into one computation.
//
// Jitter comes from a seeded source so tests and the chaos suite replay the
// exact retry timeline; production callers pick any seed (the jitter only
// needs to differ *across* clients, not to be unpredictable).
//
// Backoff is exported for other subsystems: the riskvet retrysleep rule
// bans naked time.Sleep retry loops everywhere outside this package, and
// this is the helper it points offenders to.
package riskclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// ErrCircuitOpen reports a call rejected without touching the network
// because the breaker is open (or another probe holds the half-open slot).
var ErrCircuitOpen = errors.New("riskclient: circuit breaker open")

// HTTPError is a non-2xx response that was not retried away: a 4xx, or the
// last 5xx once attempts ran out.
type HTTPError struct {
	Status     int
	Body       string
	RetryAfter int // seconds, from the Retry-After header; 0 if absent
}

func (e *HTTPError) Error() string {
	body := e.Body
	if len(body) > 200 {
		body = body[:200] + "..."
	}
	return fmt.Sprintf("riskclient: HTTP %d: %s", e.Status, strings.TrimSpace(body))
}

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// Closed: requests flow; consecutive failures are being counted.
	Closed BreakerState = iota
	// Open: requests fail fast until the cooldown elapses.
	Open
	// HalfOpen: one probe is in flight deciding the breaker's fate.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Config tunes a Client. The zero value of every field gets a sensible
// default from New.
type Config struct {
	// BaseURL is the riskd root, e.g. "http://127.0.0.1:8321". Required.
	BaseURL string
	// HTTPClient performs the round trips. Default: a plain &http.Client{}.
	// Wrap its Transport with faultinject.Transport to chaos-test a caller.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call (first + retries). Default 4.
	MaxAttempts int
	// BaseBackoff seeds the exponential schedule. Default 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps a computed backoff delay. Default 5s. A server
	// Retry-After hint may exceed it (capped at maxRetryAfterHonored).
	MaxBackoff time.Duration
	// Threshold is the consecutive-failure count that opens the breaker.
	// Default 5.
	Threshold int
	// Cooldown is how long the breaker stays open before a half-open
	// probe. Default 5s.
	Cooldown time.Duration
	// Seed drives the jitter stream. Default 1 — deterministic on purpose;
	// give each production client a distinct seed.
	Seed int64
	// Sleep waits between attempts; tests substitute a recorder. The
	// default waits on a timer, returning early with the context's error.
	Sleep func(ctx context.Context, d time.Duration) error
	// Now supplies the clock for cooldown arithmetic; tests substitute a
	// fake. Default time.Now.
	Now func() time.Time
}

// maxRetryAfterHonored caps how long a server Retry-After hint can make the
// client wait; anything longer is treated as this. Matches the server-side
// clamp so the two ends agree on the ceiling.
const maxRetryAfterHonored = 60 * time.Second

// Stats is a point-in-time snapshot of the client's counters.
type Stats struct {
	// Calls counts Assess invocations; Attempts the HTTP tries under them.
	Calls    int64 `json:"calls"`
	Attempts int64 `json:"attempts"`
	// Retries counts attempts after the first.
	Retries int64 `json:"retries"`
	// Successes / Failures tally call outcomes; ShortCircuits are calls
	// rejected by the open breaker (a subset of Failures).
	Successes     int64 `json:"successes"`
	Failures      int64 `json:"failures"`
	ShortCircuits int64 `json:"short_circuits"`
	// RetryAfterHonored counts waits taken from a server hint instead of
	// the backoff schedule.
	RetryAfterHonored int64 `json:"retry_after_honored"`
	// BreakerOpens counts closed/half-open → open transitions.
	BreakerOpens int64  `json:"breaker_opens"`
	BreakerState string `json:"breaker_state"`
	// ConsecutiveFailures is the breaker's current failure streak.
	ConsecutiveFailures int `json:"consecutive_failures"`
}

// Client is a resilient riskd client. Construct with New; safe for
// concurrent use.
type Client struct {
	cfg  Config
	base string

	mu       sync.Mutex
	rng      *rand.Rand
	state    BreakerState
	fails    int // consecutive failures while closed
	openedAt time.Time
	probing  bool

	calls, attempts, retries       int64
	successes, failures, shorted   int64
	retryAfterHonored, breakerOpen int64
}

// New builds a Client, applying Config defaults.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("riskclient: Config.BaseURL is required")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Sleep == nil {
		cfg.Sleep = ctxSleep
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Client{
		cfg:  cfg,
		base: strings.TrimRight(cfg.BaseURL, "/"),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Backoff returns the delay before retry attempt (0-based: attempt 0 is the
// wait after the first failure): uniform in [0, min(max, base·2^attempt)),
// the "full jitter" schedule. Decorrelated random delays spread synchronized
// retry storms; this helper is the sanctioned alternative to naked
// time.Sleep retry loops (riskvet's retrysleep rule).
func Backoff(rng *rand.Rand, attempt int, base, max time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	ceil := base
	for i := 0; i < attempt && ceil < max; i++ {
		ceil *= 2
	}
	if ceil > max {
		ceil = max
	}
	if ceil <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(ceil)))
}

// Assess submits one assessment, retrying transient failures within ctx and
// the breaker's consent. On a 2xx it returns the decoded response; a 4xx or
// a final non-retryable failure returns *HTTPError; breaker rejections
// return ErrCircuitOpen.
func (c *Client) Assess(ctx context.Context, req *server.AssessRequest) (*server.AssessResponse, error) {
	var out server.AssessResponse
	if err := c.do(ctx, "/v1/assess", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AssessDelta submits an incremental assessment for an evolved release: the
// base table's digest (from a previous response) plus a sparse counts diff.
// Retry and breaker semantics match Assess — a delta is the same pure
// function of its request, just cheaper for the server. A 404
// means the server no longer holds the base table; the caller falls back to
// a full Assess with the evolved counts.
func (c *Client) AssessDelta(ctx context.Context, req *server.DeltaRequest) (*server.DeltaResponse, error) {
	var out server.DeltaResponse
	if err := c.do(ctx, "/v1/assess/delta", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// do runs the shared retry/breaker loop for one POST endpoint, sending the
// same encoded body on every attempt and decoding a 2xx body into out.
func (c *Client) do(ctx context.Context, path string, req any, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("riskclient: encoding request: %w", err)
	}

	c.mu.Lock()
	c.calls++
	c.mu.Unlock()

	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			c.recordCallFailure()
			return err
		}
		probe, err := c.allow()
		if err != nil {
			c.mu.Lock()
			c.shorted++
			c.failures++
			c.mu.Unlock()
			return err
		}

		retryable, err := c.attempt(ctx, path, body, out)
		c.settle(probe, err == nil || isClientError(err))
		if err == nil {
			c.mu.Lock()
			c.successes++
			c.mu.Unlock()
			return nil
		}
		lastErr = err
		if !retryable {
			c.recordCallFailure()
			return err
		}
		if attempt == c.cfg.MaxAttempts-1 {
			break
		}
		delay := c.nextDelay(attempt, err)
		if err := c.cfg.Sleep(ctx, delay); err != nil {
			c.recordCallFailure()
			return err
		}
		c.mu.Lock()
		c.retries++
		c.mu.Unlock()
	}
	c.recordCallFailure()
	return fmt.Errorf("riskclient: %d attempts exhausted: %w", c.cfg.MaxAttempts, lastErr)
}

// Ready probes GET /readyz. nil means the server is accepting work; an
// *HTTPError with status 503 means it is draining.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return &HTTPError{Status: resp.StatusCode, Body: string(raw)}
	}
	return nil
}

// attempt performs one HTTP try against path, decoding a 2xx into out.
// retryable classifies the failure; client errors (4xx) and decode failures
// are final.
func (c *Client) attempt(ctx context.Context, path string, body []byte, out any) (retryable bool, err error) {
	c.mu.Lock()
	c.attempts++
	c.mu.Unlock()

	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	hreq.Header.Set("Content-Type", "application/json")

	hresp, err := c.cfg.HTTPClient.Do(hreq)
	if err != nil {
		return true, err // transport-level: the peer may be back next try
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, 32<<20))
	if err != nil {
		return true, err
	}
	if hresp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			return false, fmt.Errorf("riskclient: decoding response: %w", err)
		}
		return false, nil
	}
	herr := &HTTPError{
		Status:     hresp.StatusCode,
		Body:       string(raw),
		RetryAfter: parseRetryAfter(hresp.Header.Get("Retry-After"), c.cfg.Now()),
	}
	// 5xx (including 503 + Retry-After) is the server struggling: retry.
	// 4xx is this request being wrong: final.
	return hresp.StatusCode >= 500, herr
}

// parseRetryAfter reads a Retry-After header value in either form RFC 9110
// §10.2.3 allows: a non-negative integer delay in seconds, or an HTTP-date
// (riskd sends delta-seconds; proxies and other servers may rewrite it to a
// date). A date is converted to whole seconds from now, rounded up so a
// 500ms hint still waits rather than retrying immediately. Returns 0 —
// meaning "no usable hint, use the backoff schedule" — for absent values,
// garbage, and dates in the past.
func parseRetryAfter(h string, now time.Time) int {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if sec, err := strconv.Atoi(h); err == nil {
		if sec > 0 {
			return sec
		}
		return 0
	}
	when, err := http.ParseTime(h)
	if err != nil {
		return 0
	}
	until := when.Sub(now)
	if until <= 0 {
		return 0
	}
	return int((until + time.Second - 1) / time.Second)
}

// nextDelay picks the wait before the next attempt: the server's Retry-After
// hint when the failure carried one (clamped to maxRetryAfterHonored),
// otherwise the jittered exponential schedule.
func (c *Client) nextDelay(attempt int, err error) time.Duration {
	var herr *HTTPError
	if errors.As(err, &herr) && herr.RetryAfter > 0 {
		d := time.Duration(herr.RetryAfter) * time.Second
		if d > maxRetryAfterHonored {
			d = maxRetryAfterHonored
		}
		c.mu.Lock()
		c.retryAfterHonored++
		c.mu.Unlock()
		return d
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Backoff(c.rng, attempt, c.cfg.BaseBackoff, c.cfg.MaxBackoff)
}

func isClientError(err error) bool {
	var herr *HTTPError
	return errors.As(err, &herr) && herr.Status >= 400 && herr.Status < 500
}

// allow asks the breaker whether an attempt may proceed. probe reports that
// this attempt is the half-open probe whose outcome settles the breaker.
func (c *Client) allow() (probe bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case Closed:
		return false, nil
	case Open:
		if c.cfg.Now().Sub(c.openedAt) < c.cfg.Cooldown {
			return false, ErrCircuitOpen
		}
		c.state = HalfOpen
		c.probing = true
		return true, nil
	case HalfOpen:
		if c.probing {
			return false, ErrCircuitOpen
		}
		c.probing = true
		return true, nil
	}
	return false, nil
}

// settle reports an attempt's outcome to the breaker. ok covers successes
// and 4xx responses — the server answered, so the path is healthy even if
// this request was rejected.
func (c *Client) settle(probe, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if probe {
		c.probing = false
		if ok {
			c.state = Closed
			c.fails = 0
		} else {
			c.state = Open
			c.openedAt = c.cfg.Now()
			c.breakerOpen++
		}
		return
	}
	if ok {
		c.fails = 0
		return
	}
	c.fails++
	if c.state == Closed && c.fails >= c.cfg.Threshold {
		c.state = Open
		c.openedAt = c.cfg.Now()
		c.breakerOpen++
	}
}

func (c *Client) recordCallFailure() {
	c.mu.Lock()
	c.failures++
	c.mu.Unlock()
}

// State returns the breaker's current position (cooldown expiry is only
// observed by the next call, so an idle open breaker reports Open even
// after the cooldown).
func (c *Client) State() BreakerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Stats snapshots the counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Calls:               c.calls,
		Attempts:            c.attempts,
		Retries:             c.retries,
		Successes:           c.successes,
		Failures:            c.failures,
		ShortCircuits:       c.shorted,
		RetryAfterHonored:   c.retryAfterHonored,
		BreakerOpens:        c.breakerOpen,
		BreakerState:        c.state.String(),
		ConsecutiveFailures: c.fails,
	}
}
