package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// post sends an assess request to the handler and decodes the response into
// out (which may be *AssessResponse or *errorResponse).
func post(t *testing.T, h http.Handler, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/assess", bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode response %q: %v", rec.Body.String(), err)
		}
	}
	return rec
}

// countsBody builds an inline-counts assess request with n items of distinct
// support over 2n transactions, plus extra JSON fields appended verbatim.
func countsBody(n int, extra string) string {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = i + 1
	}
	raw, _ := json.Marshal(counts)
	return fmt.Sprintf(`{"dataset": {"transactions": %d, "counts": %s}%s}`, 2*n, raw, extra)
}

func TestAssessCacheHitMiss(t *testing.T) {
	h := New(Config{}).Handler()

	var first, second, third AssessResponse
	if rec := post(t, h, countsBody(20, ""), &first); rec.Code != http.StatusOK {
		t.Fatalf("first: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if first.Cached || first.Coalesced {
		t.Errorf("first response: cached=%v coalesced=%v, want fresh", first.Cached, first.Coalesced)
	}
	if first.Outcome == nil || first.Mode != "recipe" || first.Recipe == nil {
		t.Fatalf("first outcome = %+v, want recipe result", first.Outcome)
	}

	post(t, h, countsBody(20, ""), &second)
	if !second.Cached {
		t.Error("second identical request: want cached=true")
	}
	if second.Key != first.Key {
		t.Errorf("identical requests produced different keys: %s vs %s", first.Key, second.Key)
	}
	if second.Recipe == nil || second.Recipe.AlphaMax != first.Recipe.AlphaMax {
		t.Error("cached response does not carry the original result")
	}

	// A different seed is a different computation: miss.
	post(t, h, countsBody(20, `, "seed": 2`), &third)
	if third.Cached {
		t.Error("different seed: want cache miss")
	}
	if third.Key == first.Key {
		t.Error("different seed must change the cache key")
	}
}

func TestSingleFlightDedup(t *testing.T) {
	var computes atomic.Int64
	release := make(chan struct{})
	h := New(Config{
		AssessFn: func(ctx context.Context, job *Job) (*Outcome, error) {
			computes.Add(1)
			<-release
			return &Outcome{Mode: "recipe", Method: "stub"}, nil
		},
	}).Handler()

	const n = 6
	body := countsBody(10, "")
	responses := make([]AssessResponse, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/assess", bytes.NewReader([]byte(body)))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
			json.Unmarshal(rec.Body.Bytes(), &responses[i])
		}(i)
	}
	// Let the leader start and the rest queue up behind the same key, then
	// open the gate.
	deadline := time.After(5 * time.Second)
	for computes.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no computation started")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("assess function ran %d times under %d concurrent identical requests, want 1", got, n)
	}
	fresh := 0
	for i := range responses {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, codes[i])
		}
		if responses[i].Method != "stub" {
			t.Errorf("request %d: method %q, want stub", i, responses[i].Method)
		}
		if !responses[i].Cached && !responses[i].Coalesced {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("%d responses claim to have computed, want exactly 1 (rest cached/coalesced)", fresh)
	}
}

func TestBudgetExceededDegradedResponse(t *testing.T) {
	// MaxOps 400 lets the cheap recipe stages through (a single O-estimate
	// on 100 items charges ~3n ops) but fails the α binary search, whose
	// shared budget charges runs×n = 500 per evaluation: the recipe returns
	// its proven lower bound with Degraded set, and the server serves it as
	// 200 rather than an error.
	h := New(Config{MaxOps: 400}).Handler()
	var resp AssessResponse
	if rec := post(t, h, countsBody(100, ""), &resp); rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if !resp.Degraded {
		t.Fatalf("outcome not degraded: %+v", resp.Outcome)
	}
	if resp.DegradedReason == "" {
		t.Error("degraded outcome missing a reason")
	}
	if resp.Recipe == nil || resp.Recipe.AlphaMax != 0 {
		t.Errorf("degraded recipe should carry the proven α lower bound 0, got %+v", resp.Recipe)
	}

	// Degraded results must not be cached: a repeat recomputes.
	var again AssessResponse
	post(t, h, countsBody(100, ""), &again)
	if again.Cached {
		t.Error("degraded result was served from cache")
	}
}

func TestDeadlineGives503WithRetryAfter(t *testing.T) {
	// A 1ns budget expires before any tier can run; on a domain large
	// enough that the O-estimate polls its budget (n >= CheckEvery), even
	// the floor fails and the request surfaces as 503 + Retry-After.
	h := New(Config{Timeout: time.Nanosecond}).Handler()
	var resp errorResponse
	rec := post(t, h, countsBody(5000, ""), &resp)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After header")
	}
	if resp.RetryAfter < 1 {
		t.Errorf("retry_after_s = %d, want >= 1", resp.RetryAfter)
	}
	if resp.Error == "" {
		t.Error("503 response missing error text")
	}
}

func TestQueueExhaustionGives503(t *testing.T) {
	// One slot, held by a blocked computation; a second, different request
	// must queue, burn its own (tiny) deadline, and degrade to 503.
	block := make(chan struct{})
	h := New(Config{
		MaxInflight: 1,
		AssessFn: func(ctx context.Context, job *Job) (*Outcome, error) {
			<-block
			return &Outcome{Mode: "recipe", Method: "stub"}, nil
		},
	}).Handler()
	defer close(block)

	started := make(chan struct{})
	go func() {
		close(started)
		post(t, h, countsBody(10, ""), nil)
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the leader take the slot

	var resp errorResponse
	rec := post(t, h, countsBody(11, `, "timeout_ms": 50`), &resp)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After header")
	}
}

func TestAttackModeAndBeliefCanonicalization(t *testing.T) {
	h := New(Config{}).Handler()
	body := func(belief string) string {
		raw, _ := json.Marshal(belief)
		return countsBody(10, `, "belief": `+string(raw))
	}

	var first AssessResponse
	if rec := post(t, h, body("0 0.05\n* 0 1\n"), &first); rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if first.Mode != "attack" || first.Attack == nil {
		t.Fatalf("outcome = %+v, want attack mode", first.Outcome)
	}
	if first.Method != "oestimate" {
		t.Errorf("method %q, want oestimate (no exact/simulate requested)", first.Method)
	}

	// A textually different spec that parses to the same canonical belief
	// function must hit the same cache entry.
	var second AssessResponse
	post(t, h, body("# same prior, different text\n0 0.05 0.05\n"), &second)
	if !second.Cached {
		t.Error("canonically identical belief spec: want cache hit")
	}
	if second.Key != first.Key {
		t.Errorf("keys differ for canonically identical beliefs: %s vs %s", first.Key, second.Key)
	}

	// A genuinely different prior misses.
	var third AssessResponse
	post(t, h, body("0 0.1 0.2\n"), &third)
	if third.Cached || third.Key == first.Key {
		t.Error("different belief must be a different cache entry")
	}
}

func TestDatasetPathReferences(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t.dat"), []byte("0 1\n1 2\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h := New(Config{DataDir: dir}).Handler()

	var ok AssessResponse
	if rec := post(t, h, `{"dataset": {"path": "t.dat"}}`, &ok); rec.Code != http.StatusOK {
		t.Fatalf("path ref: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if ok.Recipe == nil || ok.Recipe.Items != 3 {
		t.Errorf("outcome = %+v, want 3-item recipe result", ok.Outcome)
	}

	if rec := post(t, h, `{"dataset": {"path": "../t.dat"}}`, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("escaping path: HTTP %d, want 400", rec.Code)
	}
	if rec := post(t, h, `{"dataset": {"path": "missing.dat"}}`, nil); rec.Code != http.StatusNotFound {
		t.Errorf("missing file: HTTP %d, want 404", rec.Code)
	}

	// Path references are rejected outright without a data directory.
	hNoDir := New(Config{}).Handler()
	if rec := post(t, hNoDir, `{"dataset": {"path": "t.dat"}}`, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("path ref without -data: HTTP %d, want 400", rec.Code)
	}
}

func TestBadInput(t *testing.T) {
	h := New(Config{}).Handler()
	cases := []struct {
		name string
		body string
	}{
		{"empty dataset", `{"dataset": {}}`},
		{"two dataset refs", `{"dataset": {"fimi": "0 1\n", "counts": [1], "transactions": 2}}`},
		{"tau out of range", countsBody(5, `, "tau": 2`)},
		{"bad belief", countsBody(5, `, "belief": "99 0.5\n"`)},
		{"unknown field", `{"dataset": {"fimi": "0 1\n"}, "bogus": 1}`},
		{"malformed json", `{`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rec := post(t, h, tc.body, nil); rec.Code != http.StatusBadRequest {
				t.Errorf("HTTP %d, want 400: %s", rec.Code, rec.Body.String())
			}
		})
	}
}

func TestHealthzAndVars(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", rec.Code)
	}
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz status %v", health["status"])
	}
	if _, ok := health["uptime_s"].(float64); !ok || len(health) != 2 {
		t.Errorf("healthz body %s: want exactly status and a numeric uptime_s", rec.Body.String())
	}

	post(t, h, countsBody(10, ""), nil)
	post(t, h, countsBody(10, ""), nil)

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/vars: HTTP %d", rec.Code)
	}
	var vars struct {
		Requests int64 `json:"requests"`
		Cache    struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Aliases struct {
			Entries   int   `json:"entries"`
			Hits      int64 `json:"hits"`
			Evictions int64 `json:"evictions"`
		} `json:"aliases"`
	}
	json.Unmarshal(rec.Body.Bytes(), &vars)
	if vars.Requests != 2 {
		t.Errorf("requests = %d, want 2", vars.Requests)
	}
	if vars.Cache.Hits != 1 || vars.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", vars.Cache.Hits, vars.Cache.Misses)
	}
	// The decoded hit recorded the body's alias; a third request uses it.
	if vars.Aliases.Entries != 1 || vars.Aliases.Hits != 0 {
		t.Errorf("aliases entries/hits = %d/%d, want 1/0", vars.Aliases.Entries, vars.Aliases.Hits)
	}
	post(t, h, countsBody(10, ""), nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	json.Unmarshal(rec.Body.Bytes(), &vars)
	if vars.Requests != 3 || vars.Cache.Hits != 2 || vars.Aliases.Hits != 1 || vars.Aliases.Evictions != 0 {
		t.Errorf("after an aliased repeat: requests %d, cache hits %d, aliases %+v; want 3, 2, 1 hit",
			vars.Requests, vars.Cache.Hits, vars.Aliases)
	}

	// Method guards: GET on the assess route is a 405.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/assess", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/assess: HTTP %d, want 405", rec.Code)
	}
}
