// Command riskd serves re-identification risk assessments over HTTP: the
// paper's Assess-Risk recipe (Figure 8) and the hacker-side attack cascade
// (exact → sampled → O-estimate), behind a content-addressed cache so
// repeated assessments of the same release are O(1).
//
// Usage:
//
//	riskd [-addr :8321] [-data dir] [-cache-entries 256]
//	      [-timeout 30s] [-max-work n] [-workers n] [-max-inflight n]
//	      [-snapshot file] [-snapshot-interval 1m] [-drain-timeout 10s]
//	      [-fault-schedule s] [-fault-seed n]
//	      [-selfcheck] [-selfcheck-chaos]
//
// Endpoints: POST /v1/assess, POST /v1/assess/delta,
// GET /v1/assess/subscribe, GET /healthz, GET /readyz, GET /debug/vars —
// see internal/server. -timeout and -max-work carry the CLI budget
// convention per request: an expiring budget first degrades the assessment
// (the result reports Degraded and the tier that answered), and only when
// even the O-estimate floor cannot run does the request fail with HTTP 503
// and a Retry-After hint derived from observed compute latency.
//
// -snapshot enables crash-safe cache persistence: the file is loaded on
// boot, rewritten atomically every -snapshot-interval, and written one last
// time after the shutdown drain, so a restarted riskd serves hot releases
// warm. On SIGINT/SIGTERM the service flips /readyz to 503, finishes every
// in-flight assessment (bounded by -drain-timeout), then closes — no
// accepted request is dropped.
//
// -selfcheck starts the service on an ephemeral localhost port, runs a
// health probe and one assess round-trip three times — asserting both
// repeats are served from cache, the second through its body alias — then
// evolves the release through /v1/assess/delta while watching it on a
// /v1/assess/subscribe stream (the incremental verdict must both answer the
// POST and arrive on the stream), and shuts down cleanly; the exit status
// reports the outcome. ci.sh -serve and ci.sh -delta use it as the serving
// smoke test.
//
// -selfcheck-chaos runs one seeded fault-injection scenario end to end
// (internal/chaos): faults from -fault-schedule (default: the standard mix)
// under -fault-seed, asserting the service's robustness invariants; any
// violation exits nonzero. ci.sh -chaos uses it after the chaos test suite.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cliutil"
	"repro/internal/riskclient"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address (host:port; port 0 picks one)")
	data := flag.String("data", "", "directory dataset path references resolve under (empty: inline datasets only)")
	cacheEntries := flag.Int("cache-entries", 256, "assessment cache capacity (negative: unbounded)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request work budget (0 = unlimited)")
	maxWork := flag.Int64("max-work", 0, "operation-count budget per expensive computation (0 = unlimited)")
	workers := flag.Int("workers", 0, "parallel workers per assessment (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 0, "concurrently computing assessments (0 = GOMAXPROCS)")
	snapshot := flag.String("snapshot", "", "cache snapshot file: loaded on boot, rewritten periodically and on shutdown (empty: no persistence)")
	snapshotInterval := flag.Duration("snapshot-interval", time.Minute, "period of the background snapshot writer")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a shutdown waits for in-flight assessments")
	faults := cliutil.FaultFlags()
	selfcheck := flag.Bool("selfcheck", false, "start on an ephemeral port, run a smoke round-trip, exit")
	selfcheckChaos := flag.Bool("selfcheck-chaos", false, "run one seeded fault-injection scenario, exit nonzero on any invariant violation")
	flag.Parse()

	injector, err := faults.Injector()
	if err != nil {
		fmt.Fprintln(os.Stderr, "riskd:", err)
		os.Exit(1)
	}
	cfg := server.Config{
		DataDir:          *data,
		Timeout:          *timeout,
		MaxOps:           *maxWork,
		Workers:          *workers,
		MaxInflight:      *maxInflight,
		CacheEntries:     *cacheEntries,
		SnapshotPath:     *snapshot,
		SnapshotInterval: *snapshotInterval,
		Injector:         injector,
	}
	if *selfcheckChaos {
		if err := runSelfcheckChaos(*faults.Seed, *faults.Schedule); err != nil {
			fmt.Fprintln(os.Stderr, "riskd: selfcheck-chaos:", err)
			os.Exit(1)
		}
		return
	}
	if *selfcheck {
		if err := runSelfcheck(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "riskd: selfcheck:", err)
			os.Exit(1)
		}
		fmt.Println("riskd: selfcheck ok")
		return
	}
	if err := serve(cfg, *addr, *drainTimeout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "riskd:", err)
		os.Exit(1)
	}
}

// serveHooks lets tests drive serve's lifecycle in-process: ready receives
// the bound address once the service accepts traffic, and closing stop
// triggers the same drain sequence a SIGTERM would.
type serveHooks struct {
	ready chan<- string
	stop  <-chan struct{}
}

// serve runs the service until SIGINT/SIGTERM (or a test-injected stop),
// then shuts down in drain order: readiness flips to 503 first, every
// in-flight assessment finishes (bounded by drainTimeout), the listener
// closes, and — with -snapshot — the drained cache is written out, so the
// next boot starts warm.
func serve(cfg server.Config, addr string, drainTimeout time.Duration, hooks *serveHooks) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s := server.New(cfg)
	if loaded, skipped, err := s.LoadSnapshot(); err != nil {
		log.Printf("riskd: snapshot load: %v (starting cold)", err)
	} else if loaded > 0 || skipped > 0 {
		log.Printf("riskd: snapshot warmed %d entries (%d skipped)", loaded, skipped)
	}
	s.StartSnapshots()
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("riskd: listening on %s", ln.Addr())

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var stop <-chan struct{}
	if hooks != nil {
		stop = hooks.stop
		if hooks.ready != nil {
			hooks.ready <- ln.Addr().String()
		}
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	case <-stop:
	}

	log.Print("riskd: draining")
	s.BeginDrain() // /readyz → 503; the listener stays open while work finishes
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := s.DrainWait(drainCtx)
	shutErr := srv.Shutdown(drainCtx)
	s.StopSnapshots()
	if cfg.SnapshotPath != "" {
		if n, err := s.SaveSnapshot(); err != nil {
			log.Printf("riskd: final snapshot: %v", err)
		} else {
			log.Printf("riskd: final snapshot: %d entries", n)
		}
	}
	if drainErr != nil {
		return drainErr
	}
	return shutErr
}

// runSelfcheckChaos executes one seeded chaos scenario (internal/chaos) and
// maps invariant violations to a failing exit.
func runSelfcheckChaos(seed int64, schedule string) error {
	dir, err := os.MkdirTemp("", "riskd-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rep, err := chaos.Run(chaos.Config{Seed: seed, Schedule: schedule, Dir: dir, Logf: log.Printf})
	if err != nil {
		return err
	}
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			fmt.Fprintln(os.Stderr, "riskd: chaos violation:", v)
		}
		return fmt.Errorf("%d invariant violations (seed %d)", len(rep.Violations), seed)
	}
	fmt.Printf("riskd: selfcheck-chaos ok (seed %d: %d ok / %d errors, %d cache hits, %d retries, %d faults injected)\n",
		rep.Seed, rep.OK, rep.Errors, rep.CacheHits, rep.Retries, rep.InjectedFaults)
	return nil
}

// runSelfcheck exercises the full HTTP surface in-process: healthz, a cold
// assess, a warm (cached) repeat and an aliased one, delta + subscribe, and
// /debug/vars, then a clean shutdown.
func runSelfcheck(cfg server.Config) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: server.New(cfg).Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("riskd: selfcheck serving on %s\n", base)

	client := &http.Client{Timeout: time.Minute}
	check := func() error {
		// Health probe.
		var health struct {
			Status string `json:"status"`
		}
		if err := getJSON(client, base+"/healthz", &health); err != nil {
			return fmt.Errorf("healthz: %w", err)
		}
		if health.Status != "ok" {
			return fmt.Errorf("healthz status %q, want ok", health.Status)
		}

		// One assess round-trip, three times: the repeats must come from
		// cache, the third through the alias the second recorded for the
		// body. 40 items with distinct supports over 100 transactions keeps
		// the recipe cheap but non-trivial (it reaches the α search).
		counts := make([]int, 40)
		for i := range counts {
			counts[i] = i + 1
		}
		body, err := json.Marshal(server.AssessRequest{
			Dataset: server.DatasetRef{Transactions: 100, Counts: counts},
		})
		if err != nil {
			return err
		}
		var cold, warm, aliased server.AssessResponse
		if err := postJSON(client, base+"/v1/assess", body, &cold); err != nil {
			return fmt.Errorf("assess (cold): %w", err)
		}
		if cold.Cached || cold.Outcome == nil || cold.Mode != "recipe" {
			return fmt.Errorf("cold assess: cached=%v outcome=%+v", cold.Cached, cold.Outcome)
		}
		if err := postJSON(client, base+"/v1/assess", body, &warm); err != nil {
			return fmt.Errorf("assess (warm): %w", err)
		}
		if !warm.Cached {
			return errors.New("second identical assess was not served from cache")
		}
		if warm.Key != cold.Key {
			return fmt.Errorf("cache keys differ across identical requests: %s vs %s", cold.Key, warm.Key)
		}
		if err := postJSON(client, base+"/v1/assess", body, &aliased); err != nil {
			return fmt.Errorf("assess (aliased): %w", err)
		}
		if !aliased.Cached || aliased.Key != warm.Key || aliased.Digest != warm.Digest {
			return fmt.Errorf("third identical assess: cached=%v key %s digest %s, want the warm repeat's %s and %s",
				aliased.Cached, aliased.Key, aliased.Digest, warm.Key, warm.Digest)
		}
		fmt.Printf("riskd: assess ok (method %q, cached and aliased repeats, key %s)\n", cold.Method, cold.Key[:12])

		// Delta + subscribe smoke: watch the release on an SSE stream, evolve
		// it by one sparse diff through /v1/assess/delta, and assert the
		// fresh verdict both answers the POST and arrives on the stream.
		rc, err := riskclient.New(riskclient.Config{BaseURL: base, HTTPClient: client})
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sub, err := rc.Subscribe(ctx, cold.Digest, nil)
		if err != nil {
			return fmt.Errorf("subscribe: %w", err)
		}
		defer sub.Close()
		initial, err := sub.Next()
		if err != nil {
			return fmt.Errorf("subscribe (initial verdict): %w", err)
		}
		if initial.Digest != cold.Digest {
			return fmt.Errorf("initial stream verdict digest %s, want %s", initial.Digest, cold.Digest)
		}
		dres, err := rc.AssessDelta(ctx, &server.DeltaRequest{
			BaseDigest: cold.Digest,
			Diff:       server.DiffSpec{DTransactions: 1, Items: []int{0}, Deltas: []int{2}},
		})
		if err != nil {
			return fmt.Errorf("assess delta: %w", err)
		}
		if !dres.Incremental || dres.Digest == cold.Digest {
			return fmt.Errorf("delta: incremental=%v digest=%s (base %s)", dres.Incremental, dres.Digest, cold.Digest)
		}
		pushed, err := sub.Next()
		if err != nil {
			return fmt.Errorf("subscribe (pushed verdict): %w", err)
		}
		if pushed.Digest != dres.Digest || pushed.BaseDigest != cold.Digest {
			return fmt.Errorf("pushed verdict chain %s->%s, want %s->%s",
				pushed.BaseDigest, pushed.Digest, cold.Digest, dres.Digest)
		}
		fmt.Printf("riskd: delta ok (incremental verdict pushed to subscriber, digest %s)\n", dres.Digest[:12])

		var vars struct {
			Cache struct {
				Hits int64 `json:"hits"`
			} `json:"cache"`
			Aliases struct {
				Hits int64 `json:"hits"`
			} `json:"aliases"`
			Delta struct {
				Incremental int64 `json:"incremental"`
			} `json:"delta"`
		}
		if err := getJSON(client, base+"/debug/vars", &vars); err != nil {
			return fmt.Errorf("debug/vars: %w", err)
		}
		if vars.Cache.Hits < 1 {
			return fmt.Errorf("debug/vars reports %d cache hits, want >= 1", vars.Cache.Hits)
		}
		if vars.Aliases.Hits < 1 {
			return fmt.Errorf("debug/vars reports %d alias hits, want >= 1", vars.Aliases.Hits)
		}
		if vars.Delta.Incremental < 1 {
			return fmt.Errorf("debug/vars reports %d incremental deltas, want >= 1", vars.Delta.Incremental)
		}
		return nil
	}
	checkErr := check()

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		if checkErr == nil {
			checkErr = fmt.Errorf("shutdown: %w", err)
		}
	}
	if serveErr := <-errc; serveErr != nil && serveErr != http.ErrServerClosed && checkErr == nil {
		checkErr = serveErr
	}
	return checkErr
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeJSON(resp, out)
}

func postJSON(client *http.Client, url string, body []byte, out any) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeJSON(resp, out)
}

func decodeJSON(resp *http.Response, out any) error {
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}
