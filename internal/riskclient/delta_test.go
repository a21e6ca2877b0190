package riskclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestParseRetryAfter pins both header forms RFC 9110 allows and the
// fall-back-to-backoff cases.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		h    string
		want int
	}{
		{"absent", "", 0},
		{"delta seconds", "7", 7},
		{"delta with spaces", "  42  ", 42},
		{"zero delta", "0", 0},
		{"negative delta", "-3", 0},
		{"garbage", "soon", 0},
		{"http date future", now.Add(30 * time.Second).Format(http.TimeFormat), 30},
		{"http date past", now.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"http date now", now.Format(http.TimeFormat), 0},
		{"ansi c date", now.Add(90 * time.Second).Format(time.ANSIC), 90},
		{"rfc 850 date", now.Add(10 * time.Second).Format(time.RFC850), 10},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.h, now); got != tc.want {
			t.Errorf("%s: parseRetryAfter(%q) = %d, want %d", tc.name, tc.h, got, tc.want)
		}
	}
	// HTTP-dates carry whole seconds, so a fractional wait can only arise
	// from a sub-second clock: 30.5s until the date must round UP to 31.
	h := now.Add(31 * time.Second).Format(http.TimeFormat)
	if got := parseRetryAfter(h, now.Add(500*time.Millisecond)); got != 31 {
		t.Errorf("sub-second wait: parseRetryAfter = %d, want 31 (rounded up)", got)
	}
}

// TestRetryAfterHTTPDateHonored is satellite (b)'s end-to-end check: a 503
// whose Retry-After is an HTTP-date (a proxy rewrote riskd's delta-seconds)
// must drive the wait, exactly like the seconds form.
func TestRetryAfterHTTPDateHonored(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	s := newScript(t, 503, 200)
	s.headers = []http.Header{{"Retry-After": []string{now.Add(9 * time.Second).Format(http.TimeFormat)}}, nil}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	c, slept := newTestClient(t, ts, func(cfg *Config) {
		cfg.Now = func() time.Time { return now }
	})

	if _, err := c.Assess(context.Background(), assessReq()); err != nil {
		t.Fatal(err)
	}
	if len(*slept) != 1 || (*slept)[0] != 9*time.Second {
		t.Errorf("slept %v, want exactly the 9s HTTP-date hint", *slept)
	}
	if st := c.Stats(); st.RetryAfterHonored != 1 {
		t.Errorf("stats = %+v, want the date hint counted as honored", st)
	}
}

// TestRetryAfterHTTPDateClamped: the 60s clamp applies to dates too.
func TestRetryAfterHTTPDateClamped(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	s := newScript(t, 503, 200)
	s.headers = []http.Header{{"Retry-After": []string{now.Add(2 * time.Hour).Format(http.TimeFormat)}}, nil}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	c, slept := newTestClient(t, ts, func(cfg *Config) {
		cfg.Now = func() time.Time { return now }
	})

	if _, err := c.Assess(context.Background(), assessReq()); err != nil {
		t.Fatal(err)
	}
	if len(*slept) != 1 || (*slept)[0] != maxRetryAfterHonored {
		t.Errorf("slept %v, want the %v clamp", *slept, maxRetryAfterHonored)
	}
}

func deltaReq() *server.DeltaRequest {
	return &server.DeltaRequest{
		BaseDigest: "abc123",
		Diff:       server.DiffSpec{Items: []int{0}, Deltas: []int{1}},
	}
}

// TestAssessDeltaRetriesAndDecodes drives the delta endpoint through the
// shared retry machinery: transient 5xx retried with the same body,
// response decoded with its delta-specific fields.
func TestAssessDeltaRetriesAndDecodes(t *testing.T) {
	var hits atomic.Int64
	bodies := make(chan []byte, 8)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/assess/delta" {
			t.Errorf("delta call hit %s", r.URL.Path)
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading delta attempt: %v", err)
		}
		bodies <- body
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusBadGateway)
			w.Write([]byte(`{"error": "transient"}`))
			return
		}
		w.Write([]byte(`{"cached": false, "key": "k", "digest": "d2", "base_digest": "abc123",
			"incremental": true, "elapsed_ms": 1, "mode": "recipe", "method": "stub", "degraded": false}`))
	}))
	defer ts.Close()
	c, slept := newTestClient(t, ts, nil)

	resp, err := c.AssessDelta(context.Background(), deltaReq())
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Incremental || resp.Digest != "d2" || resp.BaseDigest != "abc123" {
		t.Errorf("decoded delta response %+v", resp)
	}
	if hits.Load() != 2 || len(*slept) != 1 {
		t.Errorf("hits=%d slept=%v, want one retry", hits.Load(), *slept)
	}
	first := <-bodies
	var sent server.DeltaRequest
	if err := json.Unmarshal(first, &sent); err != nil || sent.BaseDigest != "abc123" {
		t.Fatalf("first attempt sent %q (%v), want the delta on abc123", first, err)
	}
	if second := <-bodies; !bytes.Equal(second, first) {
		t.Errorf("delta retry changed the body: %q vs %q", second, first)
	}
}

// TestAssessDelta404IsFinal: a base-miss must not be retried — the server
// told us to fall back to a full assessment.
func TestAssessDelta404IsFinal(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error": "base digest unknown"}`))
	}))
	defer ts.Close()
	c, slept := newTestClient(t, ts, nil)

	_, err := c.AssessDelta(context.Background(), deltaReq())
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want HTTP 404", err)
	}
	if hits.Load() != 1 || len(*slept) != 0 {
		t.Errorf("404 retried: hits=%d slept=%v", hits.Load(), *slept)
	}
	// The server answered; the breaker must stay closed.
	if st := c.Stats(); st.ConsecutiveFailures != 0 {
		t.Errorf("404 counted as breaker failure: %+v", st)
	}
}

// TestSubscribeEndToEnd runs the whole loop against a real riskd: assess,
// subscribe, delta, pushed verdict, drain, ErrServerDraining.
func TestSubscribeEndToEnd(t *testing.T) {
	srv := server.New(server.Config{KeepAlive: 20 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, _ := newTestClient(t, ts, nil)
	ctx := context.Background()

	base, err := c.Assess(ctx, &server.AssessRequest{
		Dataset: server.DatasetRef{Transactions: 24, Counts: []int{1, 3, 5, 7, 9, 11, 2, 4, 6, 8}},
		Params:  server.Params{Runs: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Digest == "" {
		t.Fatal("assess response carries no digest")
	}

	sub, err := c.Subscribe(ctx, base.Digest, &server.Params{Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	initial, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if initial.Digest != base.Digest || initial.Recipe == nil {
		t.Fatalf("initial verdict %+v, want digest %s with recipe outcome", initial, base.Digest)
	}

	dres, err := c.AssessDelta(ctx, &server.DeltaRequest{
		BaseDigest: base.Digest,
		Diff:       server.DiffSpec{DTransactions: 1, Items: []int{0}, Deltas: []int{2}},
		Params:     server.Params{Runs: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dres.Incremental {
		t.Error("real-pipeline delta: want incremental")
	}
	pushed, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if pushed.Digest != dres.Digest || pushed.BaseDigest != base.Digest {
		t.Errorf("pushed verdict chain %s->%s, want %s->%s",
			pushed.BaseDigest, pushed.Digest, base.Digest, dres.Digest)
	}

	srv.BeginDrain()
	if _, err := sub.Next(); !errors.Is(err, ErrServerDraining) {
		t.Errorf("after drain: err = %v, want ErrServerDraining", err)
	}
	// A draining server also refuses fresh subscriptions with a 503.
	_, err = c.Subscribe(ctx, base.Digest, nil)
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Status != http.StatusServiceUnavailable {
		t.Errorf("subscribe while draining: err = %v, want HTTP 503", err)
	}
}
