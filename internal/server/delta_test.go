package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/recipe"
	"repro/internal/riskcache"
)

// postDelta sends a delta request and decodes the response.
func postDelta(t *testing.T, h http.Handler, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/assess/delta", bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode response %q: %v", rec.Body.String(), err)
		}
	}
	return rec
}

func deltaBody(baseDigest string, dtx int, items, deltas []int, extra string) string {
	ji, _ := json.Marshal(items)
	jd, _ := json.Marshal(deltas)
	return fmt.Sprintf(`{"base_digest": %q, "diff": {"dtransactions": %d, "items": %s, "deltas": %s}%s}`,
		baseDigest, dtx, ji, jd, extra)
}

// TestDeltaEquivalentToFullAssess is the serving half of the delta
// equivalence property: the verdict served by /v1/assess/delta carries the
// same cache key and the same outcome as a full /v1/assess over the evolved
// counts — and because the keys match, the delta-computed entry satisfies
// the full request from cache.
func TestDeltaEquivalentToFullAssess(t *testing.T) {
	hDelta := New(Config{}).Handler()
	hFull := New(Config{}).Handler() // independent server: no shared cache

	var base AssessResponse
	if rec := post(t, hDelta, countsBody(20, ""), &base); rec.Code != http.StatusOK {
		t.Fatalf("base assess: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if base.Digest == "" {
		t.Fatal("assess response carries no digest")
	}

	var dres DeltaResponse
	body := deltaBody(base.Digest, 1, []int{0, 3}, []int{2, -1}, "")
	if rec := postDelta(t, hDelta, body, &dres); rec.Code != http.StatusOK {
		t.Fatalf("delta: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if !dres.Incremental {
		t.Error("real-pipeline delta: want incremental=true")
	}
	if dres.BaseDigest != base.Digest || dres.Digest == base.Digest {
		t.Errorf("digest chain broken: base %s -> %s", dres.BaseDigest, dres.Digest)
	}

	// Independent full assessment over the evolved counts (41 transactions,
	// counts[0] 1->3, counts[3] 4->3).
	counts := make([]int, 20)
	for i := range counts {
		counts[i] = i + 1
	}
	counts[0], counts[3] = 3, 3
	raw, _ := json.Marshal(counts)
	var full AssessResponse
	rec := post(t, hFull, fmt.Sprintf(`{"dataset": {"transactions": 41, "counts": %s}}`, raw), &full)
	if rec.Code != http.StatusOK {
		t.Fatalf("full assess: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if full.Key != dres.Key {
		t.Errorf("delta and full keys differ: %s vs %s — content addressing broken", dres.Key, full.Key)
	}
	if full.Digest != dres.Digest {
		t.Errorf("delta digest %s != rebuilt digest %s", dres.Digest, full.Digest)
	}
	got, want := *dres.Recipe, *full.Recipe
	got.WallMS, got.CPUMS, want.WallMS, want.CPUMS = 0, 0, 0, 0
	if got != want {
		t.Errorf("delta verdict diverged from full rebuild:\n got %+v\nwant %+v", got, want)
	}

	// Cache interaction: on the delta server, a full request for the evolved
	// counts must hit the entry the delta path stored.
	var hit AssessResponse
	post(t, hDelta, fmt.Sprintf(`{"dataset": {"transactions": 41, "counts": %s}}`, raw), &hit)
	if !hit.Cached {
		t.Error("full assess after equivalent delta: want cache hit")
	}
	// And the reverse: repeating the delta hits too.
	var again DeltaResponse
	postDelta(t, hDelta, body, &again)
	if !again.Cached {
		t.Error("repeated delta: want cache hit")
	}
	if again.Incremental {
		t.Error("cache-served delta must not claim incremental computation")
	}
}

// TestDeltaChainThroughSessions walks chains of diffs, each using the
// previous response's digest as its base, and checks that the real pipeline
// computes every hop (incremental) and that each hop's outcome equals an
// independent server's full /v1/assess of the same counts, timings aside.
// One chain reaches the α search with propagation on; the other settles at
// the point-valued stage.
func TestDeltaChainThroughSessions(t *testing.T) {
	alternating := make([]int, 20)
	for i := range alternating {
		alternating[i] = 4 + 4*(i%2)
	}
	chains := []struct {
		name   string
		m      int
		counts []int
		extra  string
		method string
	}{
		{"alpha search", 30, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, `, "runs": 2`,
			recipe.StageAlphaSearch.String()},
		{"point-valued", 20, alternating, `, "tau": 0.3`, recipe.StagePointValued.String()},
	}
	for _, c := range chains {
		t.Run(c.name, func(t *testing.T) {
			s := New(Config{})
			h := s.Handler()
			hFull := New(Config{}).Handler() // independent server: no shared cache
			assessBody := func(m int, counts []int) string {
				raw, _ := json.Marshal(counts)
				return fmt.Sprintf(`{"dataset": {"transactions": %d, "counts": %s}%s}`, m, raw, c.extra)
			}
			m, counts := c.m, append([]int(nil), c.counts...)
			var base AssessResponse
			if rec := post(t, h, assessBody(m, counts), &base); rec.Code != http.StatusOK {
				t.Fatalf("base assess: HTTP %d: %s", rec.Code, rec.Body.String())
			}
			digest := base.Digest
			for hop := 0; hop < 4; hop++ {
				var dres DeltaResponse
				body := deltaBody(digest, 1, []int{hop}, []int{1}, c.extra)
				if rec := postDelta(t, h, body, &dres); rec.Code != http.StatusOK {
					t.Fatalf("hop %d: HTTP %d: %s", hop, rec.Code, rec.Body.String())
				}
				if !dres.Incremental {
					t.Errorf("hop %d: want incremental", hop)
				}
				if dres.Recipe == nil {
					t.Fatalf("hop %d: no recipe outcome", hop)
				}
				if dres.Method != c.method {
					t.Errorf("hop %d: method %q, want %q", hop, dres.Method, c.method)
				}

				m, counts[hop] = m+1, counts[hop]+1
				var full AssessResponse
				if rec := post(t, hFull, assessBody(m, counts), &full); rec.Code != http.StatusOK {
					t.Fatalf("hop %d: full assess: HTTP %d: %s", hop, rec.Code, rec.Body.String())
				}
				if full.Cached {
					t.Fatalf("hop %d: full assess served from cache", hop)
				}
				if full.Key != dres.Key || full.Digest != dres.Digest {
					t.Errorf("hop %d: delta key/digest %s/%s, full %s/%s", hop, dres.Key, dres.Digest, full.Key, full.Digest)
				}
				got, want := *dres.Outcome, *full.Outcome
				gotR, wantR := *got.Recipe, *want.Recipe
				gotR.WallMS, gotR.CPUMS, wantR.WallMS, wantR.CPUMS = 0, 0, 0, 0
				got.Recipe, want.Recipe = &gotR, &wantR
				if !reflect.DeepEqual(got, want) {
					t.Errorf("hop %d: delta outcome diverged from full assess:\n got %+v %+v\nwant %+v %+v",
						hop, got, gotR, want, wantR)
				}
				digest = dres.Digest
			}
			if n := s.deltaIncremental.Load(); n != 4 {
				t.Errorf("delta_incremental = %d, want 4", n)
			}
		})
	}
}

// TestDeltaComputesOnce checks that a computed delta runs the compute step
// once: the injector's compute op sees one call for the base assess and one
// for the delta.
func TestDeltaComputesOnce(t *testing.T) {
	inj, err := faultinject.NewFromSchedule(1, "compute:nth=100:err")
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{Injector: inj}).Handler()
	var base AssessResponse
	post(t, h, countsBody(10, ""), &base)
	var dres DeltaResponse
	if rec := postDelta(t, h, deltaBody(base.Digest, 1, []int{2}, []int{1}, ""), &dres); rec.Code != http.StatusOK {
		t.Fatalf("delta: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if !dres.Incremental {
		t.Error("real-pipeline delta: want incremental=true")
	}
	if calls := inj.Stats()["compute"].Calls; calls != 2 {
		t.Errorf("compute calls = %d, want 2 (base assess + one delta)", calls)
	}
}

func TestDeltaBaseMissAndBadInput(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	var e errorResponse
	rec := postDelta(t, h, deltaBody(strings.Repeat("ab", 32), 0, []int{0}, []int{1}, ""), &e)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown base digest: HTTP %d, want 404 (%s)", rec.Code, rec.Body.String())
	}
	if s.deltaBaseMiss.Load() != 1 {
		t.Errorf("delta_base_miss = %d, want 1", s.deltaBaseMiss.Load())
	}

	var base AssessResponse
	post(t, h, countsBody(10, ""), &base)

	// Diff that drives a count negative: rejected by ApplyDiff validation.
	rec = postDelta(t, h, deltaBody(base.Digest, 0, []int{0}, []int{-5}, ""), &e)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("negative count diff: HTTP %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
	// Missing base digest.
	rec = postDelta(t, h, `{"diff": {"items": [0], "deltas": [1]}}`, &e)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing base_digest: HTTP %d, want 400", rec.Code)
	}
	// Bad tau.
	rec = postDelta(t, h, deltaBody(base.Digest, 0, []int{0}, []int{1}, `, "tau": 1.5`), &e)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("tau out of range: HTTP %d, want 400", rec.Code)
	}
}

// TestDeltaDegradedServedNotCached pins the degraded-200 contract on the
// delta endpoint: an injected degraded outcome is served with 200 but never
// stored, so the next identical delta recomputes, and each such delta
// computed its verdict.
func TestDeltaDegradedServedNotCached(t *testing.T) {
	computes := 0
	s := New(Config{AssessFn: func(_ context.Context, job *Job) (*Outcome, error) {
		computes++
		return &Outcome{Mode: "recipe", Method: "stub", Degraded: true, DegradedReason: "test"}, nil
	}})
	h := s.Handler()
	var base AssessResponse
	post(t, h, countsBody(8, ""), &base)

	body := deltaBody(base.Digest, 0, []int{1}, []int{1}, "")
	for i := 0; i < 2; i++ {
		var dres DeltaResponse
		if rec := postDelta(t, h, body, &dres); rec.Code != http.StatusOK {
			t.Fatalf("delta %d: HTTP %d: %s", i, rec.Code, rec.Body.String())
		}
		if !dres.Degraded || dres.Cached {
			t.Errorf("delta %d: degraded=%v cached=%v, want degraded fresh", i, dres.Degraded, dres.Cached)
		}
		if !dres.Incremental {
			t.Errorf("delta %d computed its verdict: want incremental", i)
		}
	}
	if computes != 3 { // base + two uncacheable deltas
		t.Errorf("computes = %d, want 3 (degraded results must not be cached)", computes)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

// readSSE reads the next event (skipping keep-alive comments) or fails after
// the deadline baked into the connection.
func readSSE(br *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, ":"): // keep-alive comment
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if ev.name != "" || ev.data != "" {
				return ev, nil
			}
		}
	}
}

// TestSubscribePushesDeltaVerdicts drives the full pub/sub loop over a real
// HTTP server: subscribe to a digest, apply two chained deltas, and check
// the stream delivers the initial verdict plus one event per delta — the
// second proving the watch followed the digest chain.
func TestSubscribePushesDeltaVerdicts(t *testing.T) {
	s := New(Config{KeepAlive: 20 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var base AssessResponse
	resp, err := http.Post(ts.URL+"/v1/assess", "application/json", strings.NewReader(countsBody(12, `, "runs": 2`)))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&base); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sub, err := http.Get(ts.URL + "/v1/assess/subscribe?digest=" + base.Digest + "&runs=2")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()
	if sub.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(sub.Body)
		t.Fatalf("subscribe: HTTP %d: %s", sub.StatusCode, b)
	}
	if ct := sub.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscribe Content-Type = %q", ct)
	}
	br := bufio.NewReader(sub.Body)
	ev, err := readSSE(br)
	if err != nil || ev.name != "verdict" {
		t.Fatalf("initial event = %+v, err %v; want verdict", ev, err)
	}
	var initial DeltaResponse
	if err := json.Unmarshal([]byte(ev.data), &initial); err != nil {
		t.Fatal(err)
	}
	if initial.Digest != base.Digest || initial.Recipe == nil {
		t.Fatalf("initial verdict %+v: want digest %s with recipe outcome", initial, base.Digest)
	}

	digest := base.Digest
	for hop := 0; hop < 2; hop++ {
		body := deltaBody(digest, 0, []int{hop}, []int{1}, `, "runs": 2`)
		dresp, err := http.Post(ts.URL+"/v1/assess/delta", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var dres DeltaResponse
		if err := json.NewDecoder(dresp.Body).Decode(&dres); err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK {
			t.Fatalf("hop %d: HTTP %d", hop, dresp.StatusCode)
		}
		ev, err := readSSE(br)
		if err != nil || ev.name != "verdict" {
			t.Fatalf("hop %d: event = %+v, err %v; want verdict", hop, ev, err)
		}
		var pushed DeltaResponse
		if err := json.Unmarshal([]byte(ev.data), &pushed); err != nil {
			t.Fatal(err)
		}
		if pushed.Digest != dres.Digest || pushed.BaseDigest != digest {
			t.Errorf("hop %d: pushed digest chain %s->%s, want %s->%s",
				hop, pushed.BaseDigest, pushed.Digest, digest, dres.Digest)
		}
		digest = dres.Digest
	}
}

// TestSubscribeDrainContract is satellite (d): BeginDrain closes every
// stream with a terminal shutdown event, /readyz answers 503 by the time a
// client sees that event, and the handler goroutines all exit (checked with
// a goroutine-count assertion, meaningful under -race too).
func TestSubscribeDrainContract(t *testing.T) {
	s := New(Config{KeepAlive: 10 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	var base AssessResponse
	resp, err := client.Post(ts.URL+"/v1/assess", "application/json", strings.NewReader(countsBody(10, "")))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&base); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	client.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	const streams = 3
	type streamResult struct {
		readyCode int
		err       error
	}
	results := make(chan streamResult, streams)
	for i := 0; i < streams; i++ {
		go func() {
			sub, err := client.Get(ts.URL + "/v1/assess/subscribe?digest=" + base.Digest)
			if err != nil {
				results <- streamResult{err: err}
				return
			}
			defer sub.Body.Close()
			br := bufio.NewReader(sub.Body)
			for {
				ev, err := readSSE(br)
				if err != nil {
					results <- streamResult{err: fmt.Errorf("stream ended without shutdown event: %w", err)}
					return
				}
				if ev.name != "shutdown" {
					continue
				}
				// The ordering contract: by the time any client sees the
				// terminal event, readiness must already be 503.
				rr, err := client.Get(ts.URL + "/readyz")
				if err != nil {
					results <- streamResult{err: err}
					return
				}
				io.Copy(io.Discard, rr.Body)
				rr.Body.Close()
				// The stream must now end cleanly.
				if _, err := readSSE(br); !errors.Is(err, io.EOF) {
					results <- streamResult{readyCode: rr.StatusCode, err: fmt.Errorf("stream still open after shutdown event (err=%v)", err)}
					return
				}
				results <- streamResult{readyCode: rr.StatusCode}
				return
			}
		}()
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.subActive.Load() != streams {
		if time.Now().After(deadline) {
			t.Fatalf("streams never registered: active=%d", s.subActive.Load())
		}
		time.Sleep(time.Millisecond)
	}

	s.BeginDrain()
	for i := 0; i < streams; i++ {
		select {
		case res := <-results:
			if res.err != nil {
				t.Fatal(res.err)
			}
			if res.readyCode != http.StatusServiceUnavailable {
				t.Errorf("readyz during stream shutdown = %d, want 503", res.readyCode)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("stream did not shut down after BeginDrain")
		}
	}
	if n := s.subActive.Load(); n != 0 {
		t.Errorf("subscribers still registered after drain: %d", n)
	}
	// New subscriptions are refused while draining.
	rr, err := client.Get(ts.URL + "/v1/assess/subscribe?digest=" + base.Digest)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("subscribe while draining = %d, want 503", rr.StatusCode)
	}
	// Goroutine-leak assertion: once the client connections are torn down,
	// the handler goroutines (and their tickers) must be gone.
	client.CloseIdleConnections()
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubscribeRejectsUnknownAndBadParams(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/assess/subscribe", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("no digest: HTTP %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/assess/subscribe?digest=deadbeef", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown digest: HTTP %d, want 404", rec.Code)
	}

	var base AssessResponse
	post(t, h, countsBody(8, ""), &base)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/assess/subscribe?digest="+base.Digest+"&tau=nope", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad tau param: HTTP %d, want 400", rec.Code)
	}
	// A NaN tau that slipped past validation would open a stream, so bound
	// the request: the 400 must come back at once.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/assess/subscribe?digest="+base.Digest+"&tau=NaN", nil).WithContext(ctx))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("NaN tau param: HTTP %d, want 400", rec.Code)
	}
}

// TestRoutesShareOneJob sets all five recipe options off their defaults
// and checks that the three routes build the same job from them: a
// /v1/assess body, a two-hop delta chain back to the same counts and the
// subscribe query for that digest all report the key those options give,
// so the chain's second hop is a cache hit. The /v1/assess body carries
// neither of the delta-only fields.
func TestRoutesShareOneJob(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const opts = `, "tau": 0.2, "runs": 3, "seed": 7, "comfort": 0.4, "propagate": false`
	postJSON := func(path, body string) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s (%v)", path, resp.StatusCode, raw, err)
		}
		return raw
	}

	raw := postJSON("/v1/assess", countsBody(12, opts))
	for _, field := range []string{`"base_digest"`, `"incremental"`} {
		if bytes.Contains(raw, []byte(field)) {
			t.Errorf("/v1/assess response carries %s: %s", field, raw)
		}
	}
	var base AssessResponse
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	want := riskcache.Key(base.Digest, "", "recipe tau=0.2 runs=3 seed=7 comfort=0.4 propagate=false")
	if base.Key != want {
		t.Errorf("/v1/assess key %s, want %s", base.Key, want)
	}

	var up, back DeltaResponse
	if err := json.Unmarshal(postJSON("/v1/assess/delta", deltaBody(base.Digest, 0, []int{0}, []int{1}, opts)), &up); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(postJSON("/v1/assess/delta", deltaBody(up.Digest, 0, []int{0}, []int{-1}, opts)), &back); err != nil {
		t.Fatal(err)
	}
	if up.Key == base.Key || !up.Incremental {
		t.Errorf("first hop: key %s incremental=%v, want a new key, computed", up.Key, up.Incremental)
	}
	if back.Digest != base.Digest || back.Key != base.Key {
		t.Errorf("second hop: digest/key %s/%s, want %s/%s", back.Digest, back.Key, base.Digest, base.Key)
	}
	if !back.Cached || back.Incremental {
		t.Errorf("second hop: cached=%v incremental=%v, want a cache hit", back.Cached, back.Incremental)
	}

	sub, err := http.Get(ts.URL + "/v1/assess/subscribe?digest=" + base.Digest +
		"&tau=0.2&runs=3&seed=7&comfort=0.4&propagate=false")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()
	ev, err := readSSE(bufio.NewReader(sub.Body))
	if err != nil || ev.name != "verdict" {
		t.Fatalf("subscribe: event %+v, err %v; want verdict", ev, err)
	}
	var initial DeltaResponse
	if err := json.Unmarshal([]byte(ev.data), &initial); err != nil {
		t.Fatal(err)
	}
	if initial.Key != base.Key || !initial.Cached {
		t.Errorf("subscribe: key %s cached=%v, want %s from the cache", initial.Key, initial.Cached, base.Key)
	}
}

// TestVarsCarriesDeltaCounters checks /debug/vars exposes the new counter
// groups.
func TestVarsCarriesDeltaCounters(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	var base AssessResponse
	post(t, h, countsBody(9, ""), &base)
	var dres DeltaResponse
	postDelta(t, h, deltaBody(base.Digest, 1, []int{2}, []int{1}, ""), &dres)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	delta, ok := vars["delta"].(map[string]any)
	if !ok {
		t.Fatalf("vars has no delta group: %v", vars)
	}
	if delta["requests"].(float64) != 1 || delta["incremental"].(float64) != 1 {
		t.Errorf("delta counters = %v, want 1 request / 1 incremental", delta)
	}
	if _, ok := vars["subscribe"].(map[string]any); !ok {
		t.Error("vars has no subscribe group")
	}
	if _, ok := vars["tables"]; !ok {
		t.Error("vars has no tables registry stats")
	}
}
