// Package chaos is the fault-injection test harness for riskd: it stands up
// a real server (real HTTP listener, real assessment pipeline, real cache
// and snapshot files), drives it through the resilient client
// (internal/riskclient) while a seeded injector (internal/faultinject)
// breaks things on schedule, and checks the robustness invariants the rest
// of the repo only promises:
//
//   - Every 200 carries full provenance: a mode, a method, and — when
//     degraded — a reason. A cached response is never degraded.
//   - Degraded results never reach the snapshot file, even across the
//     encode/decode round trip.
//   - The circuit breaker opens exactly at its threshold, rejects while
//     open, probes after the cooldown, and re-opens or closes on the
//     probe's outcome — transition by transition.
//   - A drain answers every accepted request; nothing in flight is lost.
//   - A killed-and-restarted riskd serves the first repeated digest warm
//     from its snapshot.
//
// Everything is deterministic for a fixed seed and schedule, so a chaos
// failure is a reproducible bug report, not a flake. Run is used by the
// chaos test suite (ci.sh -chaos) and by `riskd -selfcheck-chaos`.
package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/faultinject"
	"repro/internal/riskcache"
	"repro/internal/riskclient"
	"repro/internal/server"
)

// DefaultSchedule is the standard fault mix: periodic compute latency, a
// failed computation, a dropped cache store, periodic transport errors (so
// the client's retry path runs), and a torn first snapshot write.
const DefaultSchedule = "compute:every=4:latency=2ms; compute:nth=5:err; " +
	"cache.store:nth=2:err; transport:every=6:err; snapshot:nth=1:partial=40"

// A chaos run fires faultRequests requests through the fault phase, and
// its drain phase must answer drainRequests concurrent in-flight requests.
const (
	faultRequests = 24
	drainRequests = 4
)

// Config parameterizes one chaos run.
type Config struct {
	// Seed drives the injector and the client's retry jitter. Two runs with
	// the same Seed and Schedule inject identical faults.
	Seed int64
	// Schedule is the fault schedule (faultinject DSL). Empty means
	// DefaultSchedule.
	Schedule string
	// Dir is the scratch directory for snapshot files. Required (callers
	// pass t.TempDir() or an os.MkdirTemp result they own).
	Dir string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Report is the outcome of a chaos run. Violations lists every invariant
// breach; an empty list with a nil error from Run means the run passed.
type Report struct {
	Seed           int64    `json:"seed"`
	Schedule       string   `json:"schedule"`
	Requests       int      `json:"requests"`
	OK             int      `json:"ok"`
	Errors         int      `json:"errors"`
	CacheHits      int      `json:"cache_hits"`
	Degraded       int      `json:"degraded"`
	Retries        int64    `json:"retries"`
	BreakerOpens   int64    `json:"breaker_opens"`
	DrainAnswered  int      `json:"drain_answered"`
	SnapshotLoaded int      `json:"snapshot_loaded"`
	InjectedFaults int64    `json:"injected_faults"`
	Violations     []string `json:"violations,omitempty"`
}

func (r *Report) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// countsRequest builds an inline-counts assess request over n items with
// distinct supports — n is effectively the dataset's identity, so distinct
// n means distinct digest and equal n means a repeat.
func countsRequest(n int) *server.AssessRequest {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = i + 1
	}
	return &server.AssessRequest{
		Dataset: server.DatasetRef{Transactions: 2 * n, Counts: counts},
	}
}

// harness is one live riskd instance plus its listener.
type harness struct {
	srv  *server.Server
	http *http.Server
	addr string
	errc chan error
}

func startServer(cfg server.Config) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{
		srv:  server.New(cfg),
		addr: "http://" + ln.Addr().String(),
		errc: make(chan error, 1),
	}
	h.http = &http.Server{Handler: h.srv.Handler()}
	go func() { h.errc <- h.http.Serve(ln) }()
	return h, nil
}

func (h *harness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.http.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-h.errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// noSleep replaces retry/backoff waits in tests: it honors cancellation but
// costs no wall-clock time, so injected fault storms don't slow the suite.
func noSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// Run executes one seeded chaos scenario end to end and reports every
// invariant violation it observed. A non-nil error means the harness itself
// failed (listener, scratch dir, restart), not that an invariant broke.
func Run(cfg Config) (*Report, error) {
	if cfg.Dir == "" {
		return nil, errors.New("chaos: Config.Dir is required")
	}
	if cfg.Schedule == "" {
		cfg.Schedule = DefaultSchedule
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{Seed: cfg.Seed, Schedule: cfg.Schedule, Requests: faultRequests}

	inj, err := faultinject.NewFromSchedule(cfg.Seed, cfg.Schedule)
	if err != nil {
		return nil, err
	}
	snapPath := filepath.Join(cfg.Dir, "chaos.snap")
	h, err := startServer(server.Config{
		Timeout:      10 * time.Second,
		MaxInflight:  8,
		SnapshotPath: snapPath,
		Injector:     inj,
	})
	if err != nil {
		return nil, err
	}
	logf("chaos: seed %d serving on %s", cfg.Seed, h.addr)

	// The faulty client: transport faults injected, seeded jitter, no real
	// sleeping. Its traffic is the fault phase.
	faulty, err := riskclient.New(riskclient.Config{
		BaseURL:    h.addr,
		HTTPClient: &http.Client{Transport: faultinject.Transport(nil, inj, "transport")},
		Threshold:  1000, // the dedicated breaker phase tests thresholds
		Seed:       cfg.Seed,
		Sleep:      noSleep,
	})
	if err != nil {
		return nil, err
	}
	// The clean client sees no injected faults: it anchors the snapshot and
	// drives the drain phase, where the invariant under test is "nothing
	// accepted is lost", not fault tolerance.
	clean, err := riskclient.New(riskclient.Config{BaseURL: h.addr, Seed: cfg.Seed, Sleep: noSleep})
	if err != nil {
		return nil, err
	}

	runFaultPhase(rep, faulty)
	runBreakerPhase(cfg, rep, h.addr)
	runDrainPhase(rep, h, clean)

	// Post-drain: anchor one known digest in the cache (its second request
	// must hit), snapshot, and scan the file for smuggled degraded entries.
	anchor := countsRequest(97)
	ctx := context.Background()
	if _, err := clean.Assess(ctx, anchor); err != nil {
		rep.violatef("anchor request failed on a fault-free client: %v", err)
	}
	if resp, err := clean.Assess(ctx, anchor); err != nil {
		rep.violatef("anchor repeat failed: %v", err)
	} else if !resp.Cached {
		rep.violatef("anchor repeat not served from cache (cached=%v)", resp.Cached)
	}
	if _, err := h.srv.SaveSnapshot(); err != nil {
		// The schedule tears the first snapshot write on purpose; the retry
		// must land because the atomic temp-file dance contains the damage.
		logf("chaos: first snapshot write failed as scheduled: %v", err)
		if _, err := h.srv.SaveSnapshot(); err != nil {
			rep.violatef("snapshot retry failed after a torn write: %v", err)
		}
	}
	scanSnapshot(rep, snapPath)

	if err := h.stop(); err != nil {
		return rep, fmt.Errorf("chaos: stopping first server: %w", err)
	}

	// Kill-and-restart: a fresh server over the same snapshot path must
	// serve the anchored digest warm.
	if err := runRestartPhase(cfg, rep, snapPath, anchor); err != nil {
		return rep, err
	}

	st := faulty.Stats()
	rep.Retries = st.Retries
	rep.InjectedFaults = inj.TotalFaults()
	logf("chaos: seed %d: %d ok / %d errors, %d cache hits, %d retries, %d injected faults, %d violations",
		cfg.Seed, rep.OK, rep.Errors, rep.CacheHits, rep.Retries, rep.InjectedFaults, len(rep.Violations))
	return rep, nil
}

// runFaultPhase fires the request mix through the faulty client and checks
// per-response provenance invariants.
func runFaultPhase(rep *Report, client *riskclient.Client) {
	ctx := context.Background()
	for i := 0; i < faultRequests; i++ {
		// Five distinct digests, revisited round-robin: repeats exercise
		// the cache under fire.
		resp, err := client.Assess(ctx, countsRequest(8+i%5))
		if err != nil {
			// Faults are being injected; failed calls are expected. The
			// invariants are about what the successes claim.
			rep.Errors++
			continue
		}
		rep.OK++
		if resp.Outcome == nil || resp.Mode == "" || resp.Method == "" {
			rep.violatef("request %d: 200 without provenance: %+v", i, resp)
			continue
		}
		if resp.Degraded {
			rep.Degraded++
			if resp.DegradedReason == "" {
				rep.violatef("request %d: degraded without a reason", i)
			}
		}
		if resp.Cached {
			rep.CacheHits++
			if resp.Degraded {
				rep.violatef("request %d: cached AND degraded — the never-cache-degraded invariant broke", i)
			}
		}
	}
}

// runBreakerPhase drives a dedicated client through an exact failure script
// and checks every breaker transition against the state machine.
func runBreakerPhase(cfg Config, rep *Report, addr string) {
	const threshold = 3
	// Occurrences 1..4 of the transport op fail, the 5th succeeds: three
	// failures open the breaker, the first probe re-opens it, the second
	// closes it.
	inj, err := faultinject.NewFromSchedule(cfg.Seed,
		"breaker.transport:nth=1:err; breaker.transport:nth=2:err; "+
			"breaker.transport:nth=3:err; breaker.transport:nth=4:err")
	if err != nil {
		rep.violatef("breaker phase: building injector: %v", err)
		return
	}
	now := time.Unix(1_700_000_000, 0)
	cooldown := 5 * time.Second
	client, err := riskclient.New(riskclient.Config{
		BaseURL:     addr,
		HTTPClient:  &http.Client{Transport: faultinject.Transport(nil, inj, "breaker.transport")},
		MaxAttempts: 1, // one attempt per call: transitions map 1:1 to calls
		Threshold:   threshold,
		Cooldown:    cooldown,
		Seed:        cfg.Seed,
		Sleep:       noSleep,
		Now:         func() time.Time { return now },
	})
	if err != nil {
		rep.violatef("breaker phase: building client: %v", err)
		return
	}
	ctx := context.Background()
	req := countsRequest(41)

	for i := 1; i <= threshold; i++ {
		if _, err := client.Assess(ctx, req); err == nil {
			rep.violatef("breaker phase: call %d succeeded despite an injected transport fault", i)
		}
		want := riskclient.Closed
		if i == threshold {
			want = riskclient.Open
		}
		if got := client.State(); got != want {
			rep.violatef("breaker phase: after %d failures state = %v, want %v", i, got, want)
		}
	}
	if st := client.Stats(); st.BreakerOpens != 1 {
		rep.violatef("breaker phase: opens = %d after threshold, want 1", st.BreakerOpens)
	}
	// Open and inside the cooldown: the call must short-circuit without an
	// HTTP attempt.
	before := client.Stats().Attempts
	if _, err := client.Assess(ctx, req); !errors.Is(err, riskclient.ErrCircuitOpen) {
		rep.violatef("breaker phase: call during cooldown returned %v, want ErrCircuitOpen", err)
	}
	if after := client.Stats().Attempts; after != before {
		rep.violatef("breaker phase: short-circuited call still attempted HTTP (%d -> %d)", before, after)
	}
	// Past the cooldown the probe goes through — and fails (occurrence 4),
	// re-opening the breaker.
	now = now.Add(cooldown + time.Second)
	if _, err := client.Assess(ctx, req); err == nil {
		rep.violatef("breaker phase: failing probe reported success")
	}
	if got := client.State(); got != riskclient.Open {
		rep.violatef("breaker phase: state after failed probe = %v, want Open", got)
	}
	if st := client.Stats(); st.BreakerOpens != 2 {
		rep.violatef("breaker phase: opens after failed probe = %d, want 2", st.BreakerOpens)
	}
	// Next cooldown's probe succeeds (occurrence 5 has no fault): Closed.
	now = now.Add(cooldown + time.Second)
	if _, err := client.Assess(ctx, req); err != nil {
		rep.violatef("breaker phase: recovering probe failed: %v", err)
	}
	if got := client.State(); got != riskclient.Closed {
		rep.violatef("breaker phase: state after successful probe = %v, want Closed", got)
	}
	rep.BreakerOpens = client.Stats().BreakerOpens
}

// runDrainPhase launches concurrent requests, begins a drain while they are
// in flight, and checks that readiness flips, every request is answered,
// and the drain completes.
func runDrainPhase(rep *Report, h *harness, client *riskclient.Client) {
	ctx := context.Background()
	type result struct {
		resp *server.AssessResponse
		err  error
	}
	baseline := h.srv.CompletedJobs()
	results := make(chan result, drainRequests)
	for i := 0; i < drainRequests; i++ {
		go func(i int) {
			// Distinct, deliberately larger datasets: the computations
			// stay in flight long enough for the drain to overlap them.
			resp, err := client.Assess(ctx, countsRequest(400+37*i))
			results <- result{resp, err}
		}(i)
	}

	// Wait until the server has accepted work (or everything already
	// finished — the drain assertions hold either way).
	tick := time.NewTicker(time.Millisecond)
	deadline := time.NewTimer(5 * time.Second)
	defer tick.Stop()
	defer deadline.Stop()
wait:
	for h.srv.InflightJobs() == 0 && h.srv.CompletedJobs()-baseline < drainRequests {
		select {
		case <-tick.C:
		case <-deadline.C:
			break wait
		}
	}

	h.srv.BeginDrain()
	var herr *riskclient.HTTPError
	if err := client.Ready(ctx); !errors.As(err, &herr) || herr.Status != http.StatusServiceUnavailable {
		rep.violatef("drain phase: /readyz during drain returned %v, want HTTP 503", err)
	}

	for i := 0; i < drainRequests; i++ {
		r := <-results
		if r.err != nil {
			rep.violatef("drain phase: in-flight request lost to the drain: %v", r.err)
			continue
		}
		rep.DrainAnswered++
		if r.resp.Outcome == nil || r.resp.Mode == "" || r.resp.Method == "" {
			rep.violatef("drain phase: drained request lost provenance: %+v", r.resp)
		}
	}
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := h.srv.DrainWait(drainCtx); err != nil {
		rep.violatef("drain phase: DrainWait: %v", err)
	}
}

// scanSnapshot opens the snapshot file with a permissive decoder and counts
// degraded entries — there must be none, whatever the cache held.
func scanSnapshot(rep *Report, path string) {
	degraded := 0
	scan := riskcache.New[*server.Outcome](0)
	loaded, _, err := scan.LoadFile(path, func(b []byte) (*server.Outcome, bool, error) {
		var o server.Outcome
		if err := json.Unmarshal(b, &o); err != nil {
			return nil, false, err
		}
		if o.Degraded {
			degraded++
		}
		return &o, true, nil
	})
	if err != nil {
		rep.violatef("snapshot scan: %v", err)
		return
	}
	if loaded == 0 {
		rep.violatef("snapshot scan: snapshot holds no entries (anchor should be there)")
	}
	if degraded > 0 {
		rep.violatef("snapshot scan: %d degraded entries persisted — the never-snapshot-degraded invariant broke", degraded)
	}
}

// runRestartPhase boots a second server over the surviving snapshot and
// requires the anchored digest to come back as a warm cache hit.
func runRestartPhase(cfg Config, rep *Report, snapPath string, anchor *server.AssessRequest) error {
	h2, err := startServer(server.Config{Timeout: 10 * time.Second, SnapshotPath: snapPath})
	if err != nil {
		return fmt.Errorf("chaos: restarting server: %w", err)
	}
	defer h2.stop()
	loaded, skipped, err := h2.srv.LoadSnapshot()
	if err != nil {
		rep.violatef("restart phase: loading snapshot: %v", err)
		return nil
	}
	rep.SnapshotLoaded = loaded
	if loaded == 0 {
		rep.violatef("restart phase: snapshot loaded 0 entries (skipped %d)", skipped)
	}
	client, err := riskclient.New(riskclient.Config{BaseURL: h2.addr, Seed: cfg.Seed, Sleep: noSleep})
	if err != nil {
		return err
	}
	resp, err := client.Assess(context.Background(), anchor)
	if err != nil {
		rep.violatef("restart phase: anchored request failed: %v", err)
		return nil
	}
	if !resp.Cached {
		rep.violatef("restart phase: anchored digest not served from the snapshot (cached=%v)", resp.Cached)
	}
	if resp.Degraded {
		rep.violatef("restart phase: snapshot served a degraded result")
	}
	return nil
}
