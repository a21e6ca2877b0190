package riskclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
)

// scriptServer answers /v1/assess from a queue of canned statuses; 200s
// carry a minimal valid AssessResponse. It records hits and the body of
// every attempt.
type scriptServer struct {
	t        *testing.T
	statuses []int
	headers  []http.Header // optional per-status extra headers
	hits     atomic.Int64
	bodies   chan []byte
}

func newScript(t *testing.T, statuses ...int) *scriptServer {
	return &scriptServer{t: t, statuses: statuses, bodies: make(chan []byte, 64)}
}

func (s *scriptServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(s.hits.Add(1)) - 1
		body, err := io.ReadAll(r.Body)
		if err != nil {
			s.t.Errorf("reading attempt %d: %v", n+1, err)
		}
		s.bodies <- body
		status := http.StatusOK
		if n < len(s.statuses) {
			status = s.statuses[n]
		}
		if s.headers != nil && n < len(s.headers) && s.headers[n] != nil {
			for k, vs := range s.headers[n] {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
		}
		w.WriteHeader(status)
		if status == http.StatusOK {
			w.Write([]byte(`{"cached": false, "key": "k", "elapsed_ms": 1, "mode": "recipe", "method": "stub", "degraded": false}`))
		} else {
			w.Write([]byte(`{"error": "scripted failure"}`))
		}
	})
}

// newTestClient builds a client against ts with fast defaults and a sleep
// recorder; returns the client and the recorded delays.
func newTestClient(t *testing.T, ts *httptest.Server, mut func(*Config)) (*Client, *[]time.Duration) {
	t.Helper()
	var slept []time.Duration
	cfg := Config{
		BaseURL:     ts.URL,
		HTTPClient:  ts.Client(),
		MaxAttempts: 4,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Threshold:   3,
		Cooldown:    time.Minute,
		Seed:        42,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, &slept
}

func assessReq() *server.AssessRequest {
	return &server.AssessRequest{
		Dataset: server.DatasetRef{Transactions: 10, Counts: []int{1, 2, 3}},
	}
}

func TestSuccessFirstAttempt(t *testing.T) {
	s := newScript(t)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	c, slept := newTestClient(t, ts, nil)

	resp, err := c.Assess(context.Background(), assessReq())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Method != "stub" {
		t.Errorf("method %q", resp.Method)
	}
	if len(*slept) != 0 {
		t.Errorf("slept %v on a clean call", *slept)
	}
	st := c.Stats()
	if st.Calls != 1 || st.Attempts != 1 || st.Retries != 0 || st.Successes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRetriesTransientThenSucceeds(t *testing.T) {
	s := newScript(t, 500, 502, 200)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	c, slept := newTestClient(t, ts, nil)

	if _, err := c.Assess(context.Background(), assessReq()); err != nil {
		t.Fatal(err)
	}
	if got := s.hits.Load(); got != 3 {
		t.Errorf("server hit %d times, want 3", got)
	}
	if len(*slept) != 2 {
		t.Errorf("slept %d times, want 2 (between the 3 attempts)", len(*slept))
	}
	for i, d := range *slept {
		if d < 0 || d >= 80*time.Millisecond {
			t.Errorf("delay %d = %v outside [0, MaxBackoff)", i, d)
		}
	}
	st := c.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.Successes != 1 || st.Failures != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAttemptsExhausted(t *testing.T) {
	s := newScript(t, 500, 500, 500, 500, 500)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	c, _ := newTestClient(t, ts, func(cfg *Config) { cfg.Threshold = 100 })

	_, err := c.Assess(context.Background(), assessReq())
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Status != 500 {
		t.Fatalf("err = %v, want wrapped HTTP 500", err)
	}
	if got := s.hits.Load(); got != 4 {
		t.Errorf("server hit %d times, want MaxAttempts=4", got)
	}
	if st := c.Stats(); st.Failures != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func Test4xxIsFinal(t *testing.T) {
	s := newScript(t, 400)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	c, slept := newTestClient(t, ts, nil)

	_, err := c.Assess(context.Background(), assessReq())
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Status != 400 {
		t.Fatalf("err = %v, want HTTP 400", err)
	}
	if s.hits.Load() != 1 || len(*slept) != 0 {
		t.Errorf("4xx retried: hits=%d slept=%v", s.hits.Load(), *slept)
	}
	// A 4xx means the server answered: the breaker must not count it.
	if st := c.Stats(); st.ConsecutiveFailures != 0 {
		t.Errorf("4xx counted as breaker failure: %+v", st)
	}
}

func TestRetryAfterHonored(t *testing.T) {
	s := newScript(t, 503, 200)
	s.headers = []http.Header{{"Retry-After": []string{"7"}}, nil}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	c, slept := newTestClient(t, ts, nil)

	if _, err := c.Assess(context.Background(), assessReq()); err != nil {
		t.Fatal(err)
	}
	if len(*slept) != 1 || (*slept)[0] != 7*time.Second {
		t.Errorf("slept %v, want exactly the 7s Retry-After hint", *slept)
	}
	if st := c.Stats(); st.RetryAfterHonored != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRetryAfterClamped(t *testing.T) {
	s := newScript(t, 503, 200)
	s.headers = []http.Header{{"Retry-After": []string{"3600"}}, nil}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	c, slept := newTestClient(t, ts, nil)

	if _, err := c.Assess(context.Background(), assessReq()); err != nil {
		t.Fatal(err)
	}
	if len(*slept) != 1 || (*slept)[0] != maxRetryAfterHonored {
		t.Errorf("slept %v, want the %v clamp", *slept, maxRetryAfterHonored)
	}
}

// TestRetriesResendIdenticalBody: every attempt of one call carries the
// same bytes, so riskd's content-addressed cache sees one request however
// often it is delivered.
func TestRetriesResendIdenticalBody(t *testing.T) {
	s := newScript(t, 500, 500, 200)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	c, _ := newTestClient(t, ts, nil)

	req := assessReq()
	req.Seed = new(int64)
	*req.Seed = 99
	if _, err := c.Assess(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	first := <-s.bodies
	var sent server.AssessRequest
	if err := json.Unmarshal(first, &sent); err != nil || sent.Seed == nil || *sent.Seed != 99 {
		t.Fatalf("first attempt sent %q (%v), want the request with seed 99", first, err)
	}
	for i := 0; i < 2; i++ {
		if b := <-s.bodies; !bytes.Equal(b, first) {
			t.Errorf("retry %d changed the body: %q vs %q", i+1, b, first)
		}
	}
}

func TestBreakerOpensAtThresholdAndShortCircuits(t *testing.T) {
	s := newScript(t, 500, 500, 500, 500, 500, 500, 500, 500)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	// MaxAttempts 1 so each call is exactly one attempt: threshold 3 must
	// open the breaker on the third call's failure.
	c, _ := newTestClient(t, ts, func(cfg *Config) { cfg.MaxAttempts = 1 })

	for i := 0; i < 3; i++ {
		if _, err := c.Assess(context.Background(), assessReq()); err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
		wantState := Closed
		if i == 2 {
			wantState = Open
		}
		if got := c.State(); got != wantState {
			t.Fatalf("after failure %d: breaker %v, want %v", i+1, got, wantState)
		}
	}
	hitsAtOpen := s.hits.Load()
	if hitsAtOpen != 3 {
		t.Fatalf("server hit %d times before open, want 3", hitsAtOpen)
	}

	_, err := c.Assess(context.Background(), assessReq())
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("call while open: err = %v, want ErrCircuitOpen", err)
	}
	if s.hits.Load() != hitsAtOpen {
		t.Error("open breaker still let a request through")
	}
	st := c.Stats()
	if st.BreakerOpens != 1 || st.ShortCircuits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBreakerHalfOpenProbeClosesOnSuccess(t *testing.T) {
	s := newScript(t, 500, 500, 500, 200, 200)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	now := time.Unix(1000, 0)
	c, _ := newTestClient(t, ts, func(cfg *Config) {
		cfg.MaxAttempts = 1
		cfg.Cooldown = 10 * time.Second
		cfg.Now = func() time.Time { return now }
	})

	for i := 0; i < 3; i++ {
		c.Assess(context.Background(), assessReq())
	}
	if c.State() != Open {
		t.Fatalf("breaker %v after threshold failures, want open", c.State())
	}

	// Before the cooldown: still short-circuiting.
	now = now.Add(5 * time.Second)
	if _, err := c.Assess(context.Background(), assessReq()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("pre-cooldown call: %v, want ErrCircuitOpen", err)
	}

	// After the cooldown: the probe goes through and closes the breaker.
	now = now.Add(6 * time.Second)
	if _, err := c.Assess(context.Background(), assessReq()); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if c.State() != Closed {
		t.Errorf("breaker %v after successful probe, want closed", c.State())
	}
	if _, err := c.Assess(context.Background(), assessReq()); err != nil {
		t.Errorf("post-close call failed: %v", err)
	}
}

func TestBreakerHalfOpenProbeReopensOnFailure(t *testing.T) {
	s := newScript(t, 500, 500, 500, 500, 200)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	now := time.Unix(1000, 0)
	c, _ := newTestClient(t, ts, func(cfg *Config) {
		cfg.MaxAttempts = 1
		cfg.Cooldown = 10 * time.Second
		cfg.Now = func() time.Time { return now }
	})

	for i := 0; i < 3; i++ {
		c.Assess(context.Background(), assessReq())
	}
	now = now.Add(11 * time.Second)
	if _, err := c.Assess(context.Background(), assessReq()); err == nil {
		t.Fatal("failing probe unexpectedly succeeded")
	}
	if c.State() != Open {
		t.Fatalf("breaker %v after failed probe, want open again", c.State())
	}
	if st := c.Stats(); st.BreakerOpens != 2 {
		t.Errorf("BreakerOpens = %d, want 2", st.BreakerOpens)
	}

	// The fresh cooldown starts at the failed probe.
	now = now.Add(5 * time.Second)
	if _, err := c.Assess(context.Background(), assessReq()); !errors.Is(err, ErrCircuitOpen) {
		t.Errorf("re-opened breaker let a call through early: %v", err)
	}
	now = now.Add(6 * time.Second)
	if _, err := c.Assess(context.Background(), assessReq()); err != nil {
		t.Errorf("second probe (healthy server) failed: %v", err)
	}
	if c.State() != Closed {
		t.Errorf("breaker %v, want closed", c.State())
	}
}

func TestTransportFaultsRetryViaInjector(t *testing.T) {
	s := newScript(t)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	inj := faultinject.New(1, faultinject.Rule{Op: "transport", Nth: 1, Err: true})
	c, slept := newTestClient(t, ts, func(cfg *Config) {
		cfg.HTTPClient = &http.Client{
			Transport: faultinject.Transport(ts.Client().Transport, inj, "transport"),
		}
	})
	if _, err := c.Assess(context.Background(), assessReq()); err != nil {
		t.Fatalf("call with one injected transport fault failed: %v", err)
	}
	if len(*slept) != 1 {
		t.Errorf("slept %d times, want 1 retry after the injected fault", len(*slept))
	}
	if s.hits.Load() != 1 {
		t.Errorf("server hit %d times, want 1 (fault fired before the wire)", s.hits.Load())
	}
}

func TestContextCancelStopsRetrying(t *testing.T) {
	s := newScript(t, 500, 500, 500, 500)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	c, _ := newTestClient(t, ts, func(cfg *Config) {
		cfg.Sleep = func(ctx context.Context, d time.Duration) error {
			cancel() // the world ends mid-backoff
			return ctx.Err()
		}
	})
	_, err := c.Assess(ctx, assessReq())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.hits.Load() != 1 {
		t.Errorf("server hit %d times after cancellation, want 1", s.hits.Load())
	}
}

func TestBackoffSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base, max := 100*time.Millisecond, 2*time.Second
	seen := make([]time.Duration, 0, 512)
	for attempt := 0; attempt < 8; attempt++ {
		ceil := base << attempt
		if ceil > max {
			ceil = max
		}
		for i := 0; i < 64; i++ {
			d := Backoff(rng, attempt, base, max)
			if d < 0 || d >= ceil {
				t.Fatalf("attempt %d: delay %v outside [0, %v)", attempt, d, ceil)
			}
			seen = append(seen, d)
		}
	}
	var sum time.Duration
	for _, d := range seen {
		sum += d
	}
	if sum == 0 {
		t.Error("all delays were zero; jitter is not jittering")
	}

	// Determinism: same seed, same schedule.
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 32; i++ {
		if Backoff(a, i%6, base, max) != Backoff(b, i%6, base, max) {
			t.Fatal("same-seed backoff sequences diverged")
		}
	}
}

func TestReady(t *testing.T) {
	draining := atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("probe hit %s", r.URL.Path)
		}
		if draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	c, _ := newTestClient(t, ts, nil)

	if err := c.Ready(context.Background()); err != nil {
		t.Errorf("ready server reported not ready: %v", err)
	}
	draining.Store(true)
	err := c.Ready(context.Background())
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Status != http.StatusServiceUnavailable {
		t.Errorf("draining server: err = %v, want HTTP 503", err)
	}
}
