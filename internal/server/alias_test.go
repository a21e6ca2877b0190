package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/riskcache"
)

// postRaw sends body to /v1/assess with its Content-Length declared, as a
// client writing a whole body does.
func postRaw(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/assess", bytes.NewReader(body)))
	return rec
}

// getVars returns the decoded /debug/vars document.
func getVars(t *testing.T, h http.Handler) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("debug/vars %q: %v", rec.Body.String(), err)
	}
	return vars
}

// aliasStats reads the alias table's counters from /debug/vars.
func aliasStats(t *testing.T, h http.Handler) riskcache.Stats {
	t.Helper()
	raw, err := json.Marshal(getVars(t, h)["aliases"])
	if err != nil {
		t.Fatal(err)
	}
	var st riskcache.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// assessCorpus returns every body in FuzzAssessRequest's committed corpus.
func assessCorpus(t *testing.T) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzAssessRequest", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzAssessRequest corpus: %v", err)
	}
	var bodies [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a []byte corpus entry", p)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		bodies = append(bodies, []byte(s))
	}
	return bodies
}

// untimedAssess is the real pipeline without the recipe's wall and CPU
// readings: those are the only fields two servers computing the same job
// fill differently.
func untimedAssess(ctx context.Context, job *Job) (*Outcome, error) {
	o, err := defaultAssess(ctx, job)
	if err == nil && o.Recipe != nil {
		o.Recipe.WallMS, o.Recipe.CPUMS = 0, 0
	}
	return o, err
}

var elapsedField = regexp.MustCompile(`"elapsed_ms": [^,\n]+`)

// withoutElapsed blanks a response's elapsed_ms, the one field that times
// the request rather than describing its verdict.
func withoutElapsed(body []byte) string {
	return elapsedField.ReplaceAllString(string(body), `"elapsed_ms": _`)
}

// TestAliasHitMatchesDecodedHit is the alias path's differential proof.
// Two servers get every corpus body the handler answers with 200, plus the
// RETAIL body, three times: computed, a decoded hit that records the
// alias, then a third request. Server A serves the third from the alias;
// server B loses its aliases first, so its third is a decoded hit. Both
// must write the same bytes apart from elapsed_ms and report the same
// /debug/vars apart from wall-clock readings and the alias hits themselves.
func TestAliasHitMatchesDecodedHit(t *testing.T) {
	probe := New(Config{}).Handler()
	var bodies [][]byte
	for _, body := range append(assessCorpus(t), retailBody(t)) {
		if postRaw(probe, body).Code == http.StatusOK {
			bodies = append(bodies, body)
		}
	}
	if len(bodies) < 10 {
		t.Fatalf("only %d bodies answered 200; the corpus should give more", len(bodies))
	}

	a, b := New(Config{AssessFn: untimedAssess}), New(Config{AssessFn: untimedAssess})
	ha, hb := a.Handler(), b.Handler()
	round := func() (ra, rb []string) {
		for _, body := range bodies {
			recA, recB := postRaw(ha, body), postRaw(hb, body)
			if recA.Code != http.StatusOK || recB.Code != http.StatusOK {
				t.Fatalf("body %q: HTTP %d / %d", body, recA.Code, recB.Code)
			}
			ra, rb = append(ra, withoutElapsed(recA.Body.Bytes())), append(rb, withoutElapsed(recB.Body.Bytes()))
		}
		return ra, rb
	}
	round()
	secondA, _ := round()
	hitsBefore := aliasStats(t, ha).Hits
	b.aliases = riskcache.New[bodyAlias](b.cfg.CacheEntries)
	thirdA, thirdB := round()

	for i, body := range bodies {
		if thirdA[i] != thirdB[i] {
			t.Errorf("body %q: alias hit\n%s\ndecoded hit\n%s", body, thirdA[i], thirdB[i])
		}
		if thirdA[i] != secondA[i] {
			t.Errorf("body %q: alias hit\n%s\nthe same server's decoded hit\n%s", body, thirdA[i], secondA[i])
		}
		if !strings.Contains(thirdA[i], `"cached": true`) {
			t.Errorf("body %q: third response is not a cache hit:\n%s", body, thirdA[i])
		}
	}

	varsA, varsB := getVars(t, ha), getVars(t, hb)
	aliasA, aliasB := aliasStats(t, ha), aliasStats(t, hb)
	if got := aliasA.Hits - hitsBefore; got != int64(len(bodies)) {
		t.Errorf("server A served %d of %d third requests from an alias", got, len(bodies))
	}
	if aliasB.Hits != 0 {
		t.Errorf("server B served %d requests from the aliases it lost", aliasB.Hits)
	}
	aliasA.Hits, aliasB.Hits = 0, 0
	if aliasA != aliasB {
		t.Errorf("alias tables differ apart from hits: A %+v, B %+v", aliasA, aliasB)
	}
	for _, v := range []map[string]any{varsA, varsB} {
		delete(v, "uptime_s")
		delete(v, "ewma_compute_ms")
		delete(v, "aliases")
	}
	if !reflect.DeepEqual(varsA, varsB) {
		t.Errorf("debug/vars differ:\nalias   %v\ndecoded %v", varsA, varsB)
	}
}

// TestAliasFallsThroughWhenVerdictEvicted: an alias whose verdict left the
// cache decodes its body and recomputes, counting what a decoded miss
// counts, and the recomputed verdict makes the alias good again.
func TestAliasFallsThroughWhenVerdictEvicted(t *testing.T) {
	s := New(Config{CacheEntries: 1})
	h := s.Handler()
	x, y := []byte(countsBody(12, "")), []byte(countsBody(13, ""))
	for _, body := range [][]byte{x, x, y} { // computed, decoded hit, evicts x's verdict
		if rec := postRaw(h, body); rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
	}
	var resp AssessResponse
	if err := json.Unmarshal(postRaw(h, x).Body.Bytes(), &resp); err != nil || resp.Cached {
		t.Fatalf("x after its verdict was evicted: cached=%v (%v), want recomputed", resp.Cached, err)
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 3 {
		t.Errorf("cache hits/misses = %d/%d, want 1/3", st.Hits, st.Misses)
	}
	if err := json.Unmarshal(postRaw(h, x).Body.Bytes(), &resp); err != nil || !resp.Cached {
		t.Errorf("x once recomputed: cached=%v (%v), want a hit", resp.Cached, err)
	}
	if st := s.CacheStats(); st.Hits != 2 || st.Misses != 3 {
		t.Errorf("cache hits/misses = %d/%d, want 2/3", st.Hits, st.Misses)
	}
}

// TestAliasFallsThroughWhenTableEvicted: an alias whose table left the
// registry decodes its body, which registers the table again, so the
// digest the response hands out still resolves for /v1/assess/delta.
func TestAliasFallsThroughWhenTableEvicted(t *testing.T) {
	s := New(Config{AssessFn: func(context.Context, *Job) (*Outcome, error) {
		return &Outcome{Mode: "recipe", Method: "stub"}, nil
	}})
	h := s.Handler()
	x := []byte(countsBody(10, ""))
	postRaw(h, x)
	postRaw(h, x)
	for n := 0; n < tableEntries; n++ {
		if rec := postRaw(h, []byte(countsBody(20+n, ""))); rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
	}
	var resp AssessResponse
	if err := json.Unmarshal(postRaw(h, x).Body.Bytes(), &resp); err != nil || !resp.Cached {
		t.Fatalf("x after its table was evicted: cached=%v (%v), want a decoded hit", resp.Cached, err)
	}
	if st := aliasStats(t, h); st.Hits != 1 {
		t.Errorf("alias hits = %d, want the 1 lookup that fell through", st.Hits)
	}
	if st := s.CacheStats(); st.Hits != 2 {
		t.Errorf("cache hits = %d, want 2: the fall-through counts one, not two", st.Hits)
	}
	var dres DeltaResponse
	if rec := postDelta(t, h, deltaBody(resp.Digest, 1, []int{0}, []int{1}, ""), &dres); rec.Code != http.StatusOK {
		t.Errorf("delta on the fall-through's digest: HTTP %d: %s", rec.Code, rec.Body.String())
	}
}

// TestAliasNeverForPathBodies: the file behind a path reference can change
// while the request bytes stay the same, so such bodies always decode.
func TestAliasNeverForPathBodies(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "t.dat")
	if err := os.WriteFile(file, []byte("0 1\n1 2\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h := New(Config{DataDir: dir}).Handler()
	body := []byte(`{"dataset": {"path": "t.dat"}}`)
	var first, resp AssessResponse
	for i := 0; i < 3; i++ {
		if err := json.Unmarshal(postRaw(h, body).Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = resp
		}
	}
	if !resp.Cached {
		t.Error("third path request: want a decoded cache hit")
	}
	if st := aliasStats(t, h); st.Entries != 0 || st.Hits != 0 {
		t.Errorf("alias stats %+v after path requests, want none", st)
	}
	if err := os.WriteFile(file, []byte("0 1 3\n1 2\n0 2\n3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(postRaw(h, body).Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached || resp.Digest == first.Digest || resp.Recipe == nil || resp.Recipe.Items != 4 {
		t.Errorf("after the file changed: cached=%v digest %s (was %s), outcome %+v; want a fresh 4-item verdict",
			resp.Cached, resp.Digest, first.Digest, resp.Outcome)
	}
}

// TestAliasNeverForStreamedBodies: a chunked body, and one declared over
// the body limit, stream through the decoder and are never aliased.
func TestAliasNeverForStreamedBodies(t *testing.T) {
	body := []byte(countsBody(10, ""))
	for _, tc := range []struct {
		name string
		req  func() *http.Request
	}{
		{"chunked", func() *http.Request {
			// A reader httptest cannot size leaves ContentLength at -1.
			req := httptest.NewRequest(http.MethodPost, "/v1/assess", io.MultiReader(bytes.NewReader(body)))
			req.TransferEncoding = []string{"chunked"}
			return req
		}},
		{"declared over the limit", func() *http.Request {
			req := httptest.NewRequest(http.MethodPost, "/v1/assess", bytes.NewReader(body))
			req.ContentLength = maxBodyBytes + 1
			return req
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := New(Config{}).Handler()
			var resp AssessResponse
			for i := 0; i < 3; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, tc.req())
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					t.Fatalf("request %d: HTTP %d: %s", i, rec.Code, rec.Body.String())
				}
			}
			if !resp.Cached {
				t.Error("third request: want a decoded cache hit")
			}
			if st := aliasStats(t, h); st.Entries != 0 || st.Hits != 0 {
				t.Errorf("alias stats %+v, want none", st)
			}
		})
	}
}

// TestAliasRecordedOnlyOnHit: a verdict whose store failed was never
// cached, so its body gets no alias until a decoded request hits.
func TestAliasRecordedOnlyOnHit(t *testing.T) {
	inj, err := faultinject.NewFromSchedule(1, "cache.store:nth=1:err")
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{Injector: inj}).Handler()
	body := []byte(countsBody(12, ""))
	want := []struct {
		cached  bool
		entries int
		hits    int64
	}{
		{false, 0, 0}, // computed, store dropped
		{false, 0, 0}, // computed again, stored
		{true, 1, 0},  // decoded hit: records the alias
		{true, 1, 1},  // alias hit
	}
	for i, w := range want {
		var resp AssessResponse
		if err := json.Unmarshal(postRaw(h, body).Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		st := aliasStats(t, h)
		if resp.Cached != w.cached || st.Entries != w.entries || st.Hits != w.hits {
			t.Errorf("request %d: cached=%v, alias entries/hits %d/%d; want %v, %d/%d",
				i+1, resp.Cached, st.Entries, st.Hits, w.cached, w.entries, w.hits)
		}
	}
}

// TestAliasConcurrentRepeats serves aliased and decoded repeats of two
// bodies from several goroutines at once; run it under -race.
func TestAliasConcurrentRepeats(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	x, y := []byte(countsBody(12, "")), []byte(countsBody(13, ""))
	postRaw(h, x)
	postRaw(h, x) // x is aliased from here; y records its alias concurrently
	const workers, each = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				body := x
				if (g+i)%2 == 1 {
					body = y
				}
				if rec := postRaw(h, body); rec.Code != http.StatusOK {
					t.Errorf("HTTP %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := s.CompletedJobs(), int64(2+workers*each); got != want {
		t.Errorf("completed jobs = %d, want %d", got, want)
	}
	if st := s.CacheStats(); st.Entries != 2 || st.Hits+st.Misses+st.Coalesced != 2+workers*each {
		t.Errorf("cache stats %+v: every request must count once as a hit, miss or coalesced wait", st)
	}
}

// BenchmarkAssessHitRETAIL times the request riskdbench's retail_hot
// workload repeats, end to end through Handler(): the RETAIL assess body
// (datagen seed 1) after three warm-up requests have computed its verdict,
// hit it decoded and recorded its alias. ci.sh -bench records it under
// "microbenchmarks" in BENCH_parallel.json.
func BenchmarkAssessHitRETAIL(b *testing.B) {
	body := retailBody(b)
	h := New(Config{}).Handler()
	for i := 0; i < 3; i++ {
		if rec := postRaw(h, body); rec.Code != http.StatusOK {
			b.Fatalf("warm-up %d: HTTP %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := postRaw(h, body); rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d", rec.Code)
		}
	}
}
