package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/riskcache"
)

func getStatus(h http.Handler, path string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code
}

func TestReadyzFlipsOnDrainHealthzDoesNot(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	if code := getStatus(h, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: HTTP %d, want 200", code)
	}
	s.BeginDrain()
	if code := getStatus(h, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: HTTP %d, want 503", code)
	}
	// Liveness is about the process, not about routing: it stays 200.
	if code := getStatus(h, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz during drain: HTTP %d, want 200", code)
	}
	s.BeginDrain() // idempotent
	if !s.Draining() {
		t.Error("Draining() = false after BeginDrain")
	}
}

// TestDrainCompletesInflight is the graceful-shutdown contract: with N
// requests mid-computation, a drain must (a) flip /readyz to 503
// immediately, (b) let all N finish as 200s with full provenance, and
// (c) have DrainWait return only once none are left.
func TestDrainCompletesInflight(t *testing.T) {
	const n = 4
	started := make(chan struct{}, n)
	release := make(chan struct{})
	s := New(Config{
		MaxInflight: n,
		AssessFn: func(ctx context.Context, job *Job) (*Outcome, error) {
			started <- struct{}{}
			<-release
			return &Outcome{Mode: "recipe", Method: "stub"}, nil
		},
	})
	h := s.Handler()

	codes := make([]int, n)
	responses := make([]AssessResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct bodies: n independent computations, no coalescing.
			body := countsBody(10+i, "")
			req := httptest.NewRequest(http.MethodPost, "/v1/assess", bytes.NewReader([]byte(body)))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
			json.Unmarshal(rec.Body.Bytes(), &responses[i])
		}(i)
	}
	for i := 0; i < n; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d computations started", i, n)
		}
	}

	s.BeginDrain()
	if code := getStatus(h, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz with %d in flight: HTTP %d, want 503", n, code)
	}
	if got := s.InflightJobs(); got != n {
		t.Errorf("InflightJobs = %d, want %d", got, n)
	}

	// The drain must still be waiting while work is in flight.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	if err := s.DrainWait(ctx); err == nil {
		t.Error("DrainWait returned nil with computations still in flight")
	}
	cancel()

	close(release)
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.DrainWait(ctx); err != nil {
		t.Fatalf("DrainWait after release: %v", err)
	}

	wg.Wait()
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Errorf("request %d: HTTP %d, want 200 (no request may be dropped by a drain)", i, codes[i])
		}
		if responses[i].Mode != "recipe" || responses[i].Method != "stub" {
			t.Errorf("request %d lost provenance: mode=%q method=%q", i, responses[i].Mode, responses[i].Method)
		}
	}
	if got := s.CompletedJobs(); got != n {
		t.Errorf("CompletedJobs = %d, want %d", got, n)
	}
	if got := s.InflightJobs(); got != 0 {
		t.Errorf("InflightJobs after drain = %d, want 0", got)
	}
}

func TestRetryAfterFromEWMA(t *testing.T) {
	s := New(Config{})
	// No samples, no timeout: floor of 1s.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("cold retry-after = %d, want 1", got)
	}
	// No samples but a configured timeout: that is the best guess.
	st := New(Config{Timeout: 7 * time.Second})
	if got := st.retryAfterSeconds(); got != 7 {
		t.Errorf("timeout-fallback retry-after = %d, want 7", got)
	}

	// Samples drive the hint: a steady 2.4s compute rounds up to 3s.
	for i := 0; i < 50; i++ {
		s.observeLatency(2400 * time.Millisecond)
	}
	if got := s.retryAfterSeconds(); got != 3 {
		t.Errorf("retry-after after 2.4s EWMA = %d, want 3", got)
	}
	if e := s.ewmaComputeMS(); e < 2300 || e > 2500 {
		t.Errorf("ewma = %.1fms, want ~2400", e)
	}

	// Sub-second computations clamp up to the 1s floor...
	fast := New(Config{})
	fast.observeLatency(5 * time.Millisecond)
	if got := fast.retryAfterSeconds(); got != 1 {
		t.Errorf("fast retry-after = %d, want floor 1", got)
	}
	// ...and pathological ones clamp down to 60s.
	slow := New(Config{})
	for i := 0; i < 50; i++ {
		slow.observeLatency(30 * time.Minute)
	}
	if got := slow.retryAfterSeconds(); got != 60 {
		t.Errorf("slow retry-after = %d, want ceiling 60", got)
	}
}

func TestRetryAfterSurfacesOnThrottle(t *testing.T) {
	// Prime the EWMA, then hit a deadline: the 503 must carry the
	// EWMA-derived hint, not the static timeout.
	s := New(Config{Timeout: time.Nanosecond})
	for i := 0; i < 50; i++ {
		s.observeLatency(4200 * time.Millisecond)
	}
	h := s.Handler()
	var resp errorResponse
	rec := post(t, h, countsBody(5000, ""), &resp)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "5" {
		t.Errorf("Retry-After = %q, want \"5\" (ceil of 4.2s EWMA)", got)
	}
	if resp.RetryAfter != 5 {
		t.Errorf("retry_after_s = %d, want 5", resp.RetryAfter)
	}
}

func TestSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	body := countsBody(20, "")

	first := New(Config{SnapshotPath: path})
	var cold AssessResponse
	if rec := post(t, first.Handler(), body, &cold); rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if cold.Cached {
		t.Fatal("first request was already cached")
	}
	if n, err := first.SaveSnapshot(); err != nil || n != 1 {
		t.Fatalf("SaveSnapshot: n=%d err=%v", n, err)
	}

	// "Restart": a brand-new server over the same snapshot path serves the
	// repeated request straight from the warmed cache.
	second := New(Config{SnapshotPath: path})
	if loaded, skipped, err := second.LoadSnapshot(); err != nil || loaded != 1 || skipped != 0 {
		t.Fatalf("LoadSnapshot: loaded=%d skipped=%d err=%v", loaded, skipped, err)
	}
	var warm AssessResponse
	if rec := post(t, second.Handler(), body, &warm); rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if !warm.Cached {
		t.Error("restarted server did not serve the repeated request from the snapshot")
	}
	if warm.Key != cold.Key {
		t.Errorf("keys differ across restart: %s vs %s", cold.Key, warm.Key)
	}
	if warm.Recipe == nil || cold.Recipe == nil || warm.Recipe.AlphaMax != cold.Recipe.AlphaMax {
		t.Error("snapshot round trip did not preserve the outcome")
	}
}

func TestSnapshotNeverCarriesDegraded(t *testing.T) {
	// Encode side: a degraded outcome in hand is skipped, not written.
	if _, err := snapshotEncode(&Outcome{Mode: "recipe", Degraded: true}); !errors.Is(err, riskcache.ErrSkipEntry) {
		t.Errorf("snapshotEncode(degraded) err = %v, want ErrSkipEntry", err)
	}

	// Decode side: a forged snapshot containing a degraded entry must not
	// warm the cache with it. Build one through a raw cache whose encoder
	// does not filter.
	dir := t.TempDir()
	path := filepath.Join(dir, "forged.snap")
	raw := riskcache.New[*Outcome](0)
	raw.GetOrCompute(context.Background(), "good", func() (*Outcome, bool, error) {
		return &Outcome{Mode: "recipe", Method: "exact"}, true, nil
	})
	raw.GetOrCompute(context.Background(), "bad", func() (*Outcome, bool, error) {
		return &Outcome{Mode: "recipe", Method: "oestimate", Degraded: true, DegradedReason: "forged"}, true, nil
	})
	if n, err := raw.SaveFile(path, func(o *Outcome) ([]byte, error) { return json.Marshal(o) }, nil); err != nil || n != 2 {
		t.Fatalf("forging snapshot: n=%d err=%v", n, err)
	}

	s := New(Config{SnapshotPath: path})
	loaded, skipped, err := s.LoadSnapshot()
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if loaded != 1 || skipped != 1 {
		t.Errorf("loaded=%d skipped=%d, want the degraded entry rejected (1/1)", loaded, skipped)
	}
}

// snapshotFrames walks the RSNP1 framing of data (riskcache/snapshot.go)
// without checking a checksum or decoding a value. It returns the number of
// entries the file frames, a torn or implausibly long last entry included,
// and false when data does not start with the magic.
func snapshotFrames(data []byte) (int, bool) {
	rest, ok := bytes.CutPrefix(data, []byte("RSNP1\n"))
	if !ok {
		return 0, false
	}
	// field consumes a u32 length prefix and that many bytes; false means
	// the entry ends the file there.
	field := func(limit uint32) bool {
		if len(rest) < 4 {
			return false
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if n > limit || uint64(len(rest)) < uint64(n) {
			return false
		}
		rest = rest[n:]
		return true
	}
	entries := 0
	for len(rest) > 0 {
		entries++
		if !field(1<<20) || !field(64<<20) || len(rest) < 4 {
			break
		}
		rest = rest[4:] // the entry's CRC
	}
	return entries, true
}

// FuzzSnapshotLoad feeds arbitrary bytes to riskcache.ReadSnapshot with the
// server's snapshotDecode. An alias hit serves whatever the verdict cache
// holds, snapshot-restored entries included, so the loader must not panic,
// must load no degraded outcome, must count every entry the file frames as
// loaded or skipped, and must read back what it writes unchanged.
func FuzzSnapshotLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := riskcache.New[*Outcome](0)
		loaded, skipped, err := c.ReadSnapshot(bytes.NewReader(data), snapshotDecode)
		framed, ok := snapshotFrames(data)
		if !ok {
			if !errors.Is(err, riskcache.ErrBadSnapshot) || loaded != 0 || skipped != 0 {
				t.Fatalf("no magic: loaded=%d skipped=%d err=%v, want ErrBadSnapshot", loaded, skipped, err)
			}
			return
		}
		if err != nil || loaded+skipped != framed || c.Len() != loaded {
			t.Fatalf("loaded=%d skipped=%d (cache holds %d) err=%v, want %d framed entries accounted for",
				loaded, skipped, c.Len(), err, framed)
		}
		var written bytes.Buffer
		n, err := c.WriteSnapshot(&written, func(o *Outcome) ([]byte, error) {
			if o.Degraded {
				t.Errorf("degraded outcome loaded: %+v", o)
			}
			return json.Marshal(o)
		})
		if err != nil || n != loaded {
			t.Fatalf("WriteSnapshot: %d of %d entries, err=%v", n, loaded, err)
		}
		back := riskcache.New[*Outcome](0)
		if l, sk, err := back.ReadSnapshot(bytes.NewReader(written.Bytes()), snapshotDecode); err != nil || l != loaded || sk != 0 {
			t.Fatalf("reading back: loaded=%d skipped=%d err=%v, want %d/0", l, sk, err, loaded)
		}
		var again bytes.Buffer
		if _, err := back.WriteSnapshot(&again, snapshotEncode); err != nil || !bytes.Equal(again.Bytes(), written.Bytes()) {
			t.Fatalf("read back differs (err=%v):\n%q\n%q", err, again.Bytes(), written.Bytes())
		}
	})
}

func TestSnapshotPathsDisabled(t *testing.T) {
	s := New(Config{})
	if n, err := s.SaveSnapshot(); n != 0 || err != nil {
		t.Errorf("SaveSnapshot without a path: %d/%v, want 0/nil", n, err)
	}
	if loaded, skipped, err := s.LoadSnapshot(); loaded != 0 || skipped != 0 || err != nil {
		t.Errorf("LoadSnapshot without a path: %d/%d/%v, want 0/0/nil", loaded, skipped, err)
	}
	// A non-snapshot file at the path is a cold start, not a boot failure.
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.snap")
	os.WriteFile(junk, []byte("definitely not a snapshot"), 0o644)
	sj := New(Config{SnapshotPath: junk})
	if loaded, skipped, err := sj.LoadSnapshot(); loaded != 0 || skipped != 0 || err != nil {
		t.Errorf("LoadSnapshot over junk: %d/%d/%v, want 0/0/nil", loaded, skipped, err)
	}
}

func TestStartSnapshotsPeriodicAndStop(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	s := New(Config{SnapshotPath: path, SnapshotInterval: 10 * time.Millisecond})
	post(t, s.Handler(), countsBody(15, ""), nil)

	s.StartSnapshots()
	s.StartSnapshots() // second start is a no-op, not a second goroutine
	deadline := time.After(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("periodic writer produced no snapshot")
		case <-time.After(5 * time.Millisecond):
		}
	}
	s.StopSnapshots()
	s.StopSnapshots() // idempotent

	fresh := New(Config{SnapshotPath: path})
	if loaded, _, err := fresh.LoadSnapshot(); err != nil || loaded != 1 {
		t.Errorf("periodic snapshot unloadable: loaded=%d err=%v", loaded, err)
	}
}

func TestInjectorWiring(t *testing.T) {
	// nth=1 on cache.store: the first computed result is not stored, so an
	// identical repeat recomputes; the third request finally hits.
	inj, err := faultinject.NewFromSchedule(1, "cache.store:nth=1:err")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Injector: inj})
	h := s.Handler()
	body := countsBody(12, "")

	var r1, r2, r3 AssessResponse
	post(t, h, body, &r1)
	post(t, h, body, &r2)
	post(t, h, body, &r3)
	if r1.Cached || r2.Cached {
		t.Errorf("cached = %v/%v for the first two requests, want both recomputed (store was dropped)", r1.Cached, r2.Cached)
	}
	if !r3.Cached {
		t.Error("third request not cached: the second store should have succeeded")
	}
	if st := s.CacheStats(); st.StoreFailed != 1 {
		t.Errorf("StoreFailed = %d, want 1", st.StoreFailed)
	}

	// compute faults surface as 500s, and the injector's counters show up
	// in /debug/vars.
	injC, _ := faultinject.NewFromSchedule(1, "compute:nth=1:err")
	sc := New(Config{Injector: injC})
	if rec := post(t, sc.Handler(), body, nil); rec.Code != http.StatusInternalServerError {
		t.Errorf("injected compute fault: HTTP %d, want 500", rec.Code)
	}
	rec := httptest.NewRecorder()
	sc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	var vars struct {
		Faults map[string]faultinject.OpStats `json:"faults"`
	}
	json.Unmarshal(rec.Body.Bytes(), &vars)
	if vars.Faults["compute"].Errors != 1 {
		t.Errorf("debug/vars faults = %+v, want compute errors 1", vars.Faults)
	}
}
