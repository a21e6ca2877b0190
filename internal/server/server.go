// Package server implements riskd, the long-running risk-assessment service
// (cmd/riskd). The CLI binaries treat every O-estimate or attack assessment
// as a one-shot run that re-parses the dataset and rebuilds the bipartite
// graph; the service instead treats risk scoring as what it is in production
// — a repeated, per-release query — and puts a content-addressed cache with
// single-flight deduplication (internal/riskcache) in front of the existing
// assessment machinery.
//
// Endpoints:
//
//	POST /v1/assess           belief spec + dataset reference → assessment
//	                          result with Method/Degraded/Cached provenance
//	POST /v1/assess/delta     base table digest + sparse counts diff → full
//	                          verdict for the evolved release (delta.go)
//	GET  /v1/assess/subscribe SSE stream of fresh verdicts for a digest
//	                          chain (delta.go)
//	GET  /healthz             liveness
//	GET  /readyz              readiness (503 once draining)
//	GET  /debug/vars          cache and request counters, JSON
//
// Nothing here re-implements risk math. A request is parsed into the same
// frequency-table + belief-function values the CLIs build, then dispatched
// to recipe.AssessRiskCtx (no belief: the owner's Figure 8 recipe) or
// anonrisk.AttackTableCtx (belief given: the hacker-side cascade). The
// per-request deadline and operation limit reuse internal/budget via
// cliutil.RequestContext, the -workers cap reuses internal/parallel, and the
// exact→sampled→O-estimate degradation cascade from the facade becomes the
// service's graceful-degradation story under load: a deadline that expires
// mid-computation yields a Degraded result, and only when even the
// O(n log n) floor cannot run does the request fail — as HTTP 503 with a
// Retry-After hint. Degraded results are shared with concurrent duplicate
// requests but never stored, so transient overload cannot pin a
// conservative answer in the cache.
package server

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"context"

	anonrisk "repro"
	"repro/internal/belief"
	"repro/internal/budget"
	"repro/internal/cliutil"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/recipe"
	"repro/internal/riskcache"
)

const (
	// maxBodyBytes bounds a request body.
	maxBodyBytes = 32 << 20
	// tableEntries bounds the base-table registry that /v1/assess/delta and
	// /v1/assess/subscribe resolve digests against.
	tableEntries = 64
)

// Config tunes a Server. The zero value serves with library defaults:
// unlimited budget, GOMAXPROCS workers and inflight slots, 256 cache
// entries, no dataset directory (inline datasets only).
type Config struct {
	// DataDir is the root directory that request dataset paths resolve
	// under. Empty disables path references; inline datasets always work.
	DataDir string
	// Timeout is the per-request work budget (queue wait + computation).
	// Zero means unlimited. Requests may lower it via timeout_ms, never
	// raise it.
	Timeout time.Duration
	// MaxOps is the per-computation operation limit (budget.WithMaxOps
	// semantics). Zero means unlimited.
	MaxOps int64
	// Workers caps the parallel fan-out of each assessment
	// (parallel.WithWorkers). Zero means GOMAXPROCS.
	Workers int
	// MaxInflight caps concurrently *computing* assessments; further
	// requests queue, spending their own deadline, and cache hits bypass
	// the queue entirely. Zero means GOMAXPROCS.
	MaxInflight int
	// CacheEntries bounds the assessment LRU. Zero means 256; negative
	// means unbounded.
	CacheEntries int
	// KeepAlive is the SSE keep-alive comment period on subscribe streams.
	// Zero means 15s.
	KeepAlive time.Duration
	// AssessFn computes an outcome from a parsed job. Nil means the real
	// pipeline (recipe / attack cascade); tests inject counting or blocking
	// stand-ins to observe cache and single-flight behavior.
	AssessFn func(ctx context.Context, job *Job) (*Outcome, error)
	// SnapshotPath, when non-empty, enables crash-safe cache persistence:
	// LoadSnapshot reads this file on boot, SaveSnapshot and the background
	// writer started by StartSnapshots rewrite it atomically.
	SnapshotPath string
	// SnapshotInterval is the background snapshot period. Zero means 1m.
	SnapshotInterval time.Duration
	// Injector, when non-nil, threads deterministic fault injection through
	// the server: op "compute" wraps AssessFn, op "cache.store" gates cache
	// stores, op "snapshot" interposes on snapshot writes.
	Injector *faultinject.Injector
}

// Job is a fully parsed, validated assessment request — the pure-function
// input whose digest is the cache key.
type Job struct {
	Table  *dataset.FrequencyTable
	Belief *belief.Function // nil: recipe mode

	Tau       float64
	Runs      int
	Seed      int64
	Comfort   float64
	Propagate bool
	Exact     bool // attack mode: request the exact tier
	Simulate  bool // attack mode: request the sampling tier

	Key string // content address: (dataset digest, belief digest, options)
}

// Outcome is the cacheable result of one assessment: everything the response
// carries except per-request provenance (cached/coalesced/elapsed).
type Outcome struct {
	// Mode is "recipe" (owner's Assess-Risk, Figure 8) or "attack"
	// (hacker-side estimate under a concrete belief function).
	Mode string `json:"mode"`
	// Method records what produced the numbers: a cascade tier
	// (exact/sampled/oestimate) in attack mode, the deciding recipe stage in
	// recipe mode.
	Method string `json:"method"`
	// Degraded marks that a work budget ran out and a cheaper tier (or a
	// proven lower bound) was served instead of the preferred computation.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`

	Recipe *RecipeOutcome `json:"recipe,omitempty"`
	Attack *AttackOutcome `json:"attack,omitempty"`
}

// RecipeOutcome mirrors recipe.Result for the wire.
type RecipeOutcome struct {
	Disclose  bool    `json:"disclose"`
	Items     int     `json:"items"`
	Groups    int     `json:"groups"`
	DeltaMed  float64 `json:"delta_med"`
	OEFull    float64 `json:"oe_full"`
	AlphaMax  float64 `json:"alpha_max"`
	Tolerance float64 `json:"tolerance"`
	Workers   int     `json:"workers"`
	WallMS    float64 `json:"wall_ms"`
	CPUMS     float64 `json:"cpu_ms"`
}

// AttackOutcome mirrors anonrisk.AttackReport for the wire.
type AttackOutcome struct {
	Items           int     `json:"items"`
	Expected        float64 `json:"expected"`
	OEstimate       float64 `json:"oestimate"`
	ForcedCracks    int     `json:"forced_cracks"`
	Simulated       float64 `json:"simulated,omitempty"`
	SimulatedStdDev float64 `json:"simulated_stddev,omitempty"`
	Infeasible      bool    `json:"infeasible,omitempty"`
	Alpha           float64 `json:"alpha"`
}

// Params are the options of every route: the recipe options, which newJob
// defaults and folds into the cache key, and the request's budget.
// AssessRequest and DeltaRequest embed them; a subscribe query string
// fills all but TimeoutMS under the same names.
type Params struct {
	Tau       *float64 `json:"tau,omitempty"`       // default 0.1
	Runs      int      `json:"runs,omitempty"`      // default 5
	Seed      *int64   `json:"seed,omitempty"`      // default 1
	Comfort   float64  `json:"comfort,omitempty"`   // default 0.5
	Propagate *bool    `json:"propagate,omitempty"` // default true

	// TimeoutMS optionally lowers (never raises) the server's per-request
	// budget for this request.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// AssessRequest is the POST /v1/assess body.
type AssessRequest struct {
	Dataset DatasetRef `json:"dataset"`
	// Belief is an optional hacker belief spec in the internal/belief.Parse
	// text format; present selects attack mode.
	Belief string `json:"belief,omitempty"`
	Params
	Exact    bool `json:"exact,omitempty"`
	Simulate bool `json:"simulate,omitempty"`
}

// DatasetRef names the data under assessment: exactly one of Path (FIMI file
// under the server's -data directory), FIMI (inline FIMI text), or Counts
// (support counts plus Transactions).
type DatasetRef struct {
	Path         string `json:"path,omitempty"`
	FIMI         string `json:"fimi,omitempty"`
	Transactions int    `json:"transactions,omitempty"`
	Counts       Ints   `json:"counts,omitempty"`
}

// AssessResponse is the POST /v1/assess reply.
type AssessResponse struct {
	// Cached: served straight from the LRU, no computation ran.
	Cached bool `json:"cached"`
	// Coalesced: joined an identical in-flight computation.
	Coalesced bool   `json:"coalesced,omitempty"`
	Key       string `json:"key"`
	// Digest is the content digest of the assessed table — the handle a
	// client passes back as base_digest to /v1/assess/delta or digest to
	// /v1/assess/subscribe.
	Digest    string  `json:"digest,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	*Outcome
}

type errorResponse struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_s,omitempty"`
}

// Server is the riskd HTTP service. Construct with New; serve Handler().
type Server struct {
	cfg   Config
	cache *riskcache.Cache[*Outcome]
	sem   chan struct{}
	base  context.Context
	start time.Time

	// tables is the digest-addressed registry of frequency tables seen by
	// /v1/assess and /v1/assess/delta; delta requests resolve base_digest
	// against it and subscribe streams resolve their watch digest. Registered
	// tables are never mutated (ApplyDiff always runs on a clone).
	tables *riskcache.Cache[*dataset.FrequencyTable]

	// aliases maps the SHA-256 of an inline assess body, as 32 raw bytes,
	// to what the body resolved to when it was last answered from the
	// verdict cache. It shares the verdict cache's bound.
	aliases *riskcache.Cache[bodyAlias]

	// Subscribe hub: live SSE streams, each watching a growing set of table
	// digests. Guarded by subMu.
	subMu sync.Mutex
	subs  map[*subscriber]struct{}

	// drainCh is closed by BeginDrain — strictly after draining flips, so a
	// stream that observes the close is guaranteed /readyz already answers
	// 503 — and tells every subscribe stream to send its terminal event.
	drainCh   chan struct{}
	drainOnce sync.Once

	deltaRequests    atomic.Int64 // delta requests accepted past parsing
	deltaBaseMiss    atomic.Int64 // 404s: base digest not in the registry
	deltaIncremental atomic.Int64 // deltas that computed their verdict
	subActive        atomic.Int64 // subscribe streams currently open
	subEvents        atomic.Int64 // verdict events delivered to streams
	subDropped       atomic.Int64 // verdict events dropped on full stream buffers

	requests  atomic.Int64 // assess requests accepted past parsing
	badInput  atomic.Int64 // 4xx on parse/validation
	failures  atomic.Int64 // 5xx excluding throttles
	throttled atomic.Int64 // 503 budget exhaustion
	degraded  atomic.Int64 // 200s carrying a degraded outcome

	// Drain-aware lifecycle: BeginDrain flips draining (readyz → 503),
	// inflightJobs counts accepted assess requests still being answered,
	// DrainWait blocks until that count reaches zero.
	draining      atomic.Bool
	inflightJobs  atomic.Int64
	completedJobs atomic.Int64 // assess requests answered with a 200

	// EWMA of compute latency, feeding the Retry-After hint. Guarded by
	// latMu; zero means no computation observed yet.
	latMu  sync.Mutex
	ewmaMS float64

	// Background snapshot writer state (StartSnapshots/StopSnapshots) and
	// snapshot counters for /debug/vars.
	snapMu       sync.Mutex
	snapStop     chan struct{}
	snapDone     chan struct{}
	snapWrites   atomic.Int64 // successful snapshot files written
	snapFailures atomic.Int64 // failed snapshot attempts (previous file kept)
	snapEntries  atomic.Int64 // entries in the last successful snapshot
	snapLoaded   atomic.Int64 // entries loaded from snapshots on boot
	snapSkipped  atomic.Int64 // snapshot entries rejected on load
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.CacheEntries == 0:
		cfg.CacheEntries = 256
	case cfg.CacheEntries < 0:
		cfg.CacheEntries = 0 // riskcache: unbounded
	}
	if cfg.KeepAlive <= 0 {
		cfg.KeepAlive = 15 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		cache:   riskcache.New[*Outcome](cfg.CacheEntries),
		sem:     make(chan struct{}, cfg.MaxInflight),
		base:    parallel.WithWorkers(context.Background(), cfg.Workers),
		start:   time.Now(),
		tables:  riskcache.New[*dataset.FrequencyTable](tableEntries),
		aliases: riskcache.New[bodyAlias](cfg.CacheEntries),
		subs:    make(map[*subscriber]struct{}),
		drainCh: make(chan struct{}),
	}
	if s.cfg.AssessFn == nil {
		s.cfg.AssessFn = defaultAssess
	}
	if inj := s.cfg.Injector; inj != nil {
		inner := s.cfg.AssessFn
		s.cfg.AssessFn = func(ctx context.Context, job *Job) (*Outcome, error) {
			if err := inj.Apply(ctx, "compute"); err != nil {
				return nil, err
			}
			return inner(ctx, job)
		}
		s.cache.SetStoreHook(func(string) error {
			return inj.Apply(context.Background(), "cache.store")
		})
	}
	return s
}

// Handler returns the service's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/assess", s.handleAssess)
	mux.HandleFunc("POST /v1/assess/delta", s.handleAssessDelta)
	mux.HandleFunc("GET /v1/assess/subscribe", s.handleSubscribe)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	return mux
}

// CacheStats exposes the cache counters (selfcheck, tests).
func (s *Server) CacheStats() riskcache.Stats { return s.cache.Stats() }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	vars := map[string]any{
		"uptime_s":     time.Since(s.start).Seconds(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"workers":      s.cfg.Workers,
		"max_inflight": s.cfg.MaxInflight,
		"inflight":     len(s.sem),
		"requests":     s.requests.Load(),
		"bad_input":    s.badInput.Load(),
		"failures":     s.failures.Load(),
		"throttled":    s.throttled.Load(),
		"degraded":     s.degraded.Load(),
		"cache":        s.cache.Stats(),
		"tables":       s.tables.Stats(),
		"aliases":      s.aliases.Stats(),
		"delta": map[string]any{
			"requests":    s.deltaRequests.Load(),
			"base_miss":   s.deltaBaseMiss.Load(),
			"incremental": s.deltaIncremental.Load(),
		},
		"subscribe": map[string]any{
			"active":  s.subActive.Load(),
			"events":  s.subEvents.Load(),
			"dropped": s.subDropped.Load(),
		},
		"ready":           !s.draining.Load(),
		"inflight_jobs":   s.inflightJobs.Load(),
		"completed_jobs":  s.completedJobs.Load(),
		"ewma_compute_ms": s.ewmaComputeMS(),
		"retry_after_s":   s.retryAfterSeconds(),
		"snapshot": map[string]any{
			"writes":   s.snapWrites.Load(),
			"failures": s.snapFailures.Load(),
			"entries":  s.snapEntries.Load(),
			"loaded":   s.snapLoaded.Load(),
			"skipped":  s.snapSkipped.Load(),
		},
	}
	if s.cfg.Injector != nil {
		vars["faults"] = s.cfg.Injector.Stats()
	}
	writeJSON(w, http.StatusOK, vars)
}

// bodyAlias is what an inline assess body resolved to: the key of its
// verdict and the digest of its table. It holds no table, so the alias
// table keeps nothing alive that the registry has evicted.
type bodyAlias struct {
	key, digest string
}

func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	startReq := time.Now()
	body, src := readBody(w, r)
	var alias string
	if body != nil {
		sum := sha256.Sum256(body)
		alias = string(sum[:])
		// A repeat is served only while the registry still holds its table
		// and the cache its verdict. Touch counts nothing, so a fall-through
		// to the decode below never counts a hit twice.
		if a, ok := s.aliases.Get(alias); ok && s.tables.Touch(a.digest) {
			if outcome, ok := s.cache.Get(a.key); ok {
				s.requests.Add(1)
				s.inflightJobs.Add(1)
				defer s.inflightJobs.Add(-1)
				s.answer(w, startReq, a.key, a.digest, "", outcome, riskcache.Hit)
				return
			}
		}
	}
	var req AssessRequest
	if err := decodeBody(src, &req); err != nil {
		s.badRequest(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	job, status, err := s.parseJob(&req)
	if err != nil {
		s.badRequest(w, status, err.Error())
		return
	}
	s.requests.Add(1)
	// Accepted: from here this request counts as in flight until its
	// response is written, so DrainWait knows when shutdown may proceed.
	s.inflightJobs.Add(1)
	defer s.inflightJobs.Add(-1)

	// Every table seen by a full assessment becomes a delta base candidate.
	digest := job.Table.Digest()
	s.tables.Put(digest, job.Table)

	outcome, from, err := s.verdict(r.Context(), job, req.TimeoutMS)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	// A hit proves the verdict is stored. A path body is never aliased: the
	// file under DataDir can change while the request bytes stay the same.
	if from == riskcache.Hit && body != nil && req.Dataset.Path == "" {
		s.aliases.Put(alias, bodyAlias{key: job.Key, digest: digest})
	}
	s.answer(w, startReq, job.Key, digest, "", outcome, from)
}

// verdict returns the job's outcome from the cache, from an identical
// computation in flight, or by computing it: the one way every route
// reaches the pipeline. The computation runs under the server's base
// context, not the request's ctx, so a disconnecting leader cannot kill a
// result that coalesced followers wait on; ctx only bounds this caller's
// wait. Its budget is the server's timeout, lowered (never raised) by a
// positive timeoutMS, and its operation limit. It first takes an inflight
// slot: the inflight cap is the global backpressure valve, and waiting for
// a slot spends the request's own deadline, so under sustained overload
// queued requests degrade to 503 + Retry-After instead of piling up
// without bound. A computation's latency feeds the Retry-After EWMA; a
// degraded outcome is shared with the requests waiting on it but never
// stored.
func (s *Server) verdict(ctx context.Context, job *Job, timeoutMS int64) (*Outcome, riskcache.Source, error) {
	timeout := s.cfg.Timeout
	if timeoutMS > 0 {
		if t := time.Duration(timeoutMS) * time.Millisecond; timeout == 0 || t < timeout {
			timeout = t
		}
	}
	return s.cache.GetOrCompute(ctx, job.Key, func() (*Outcome, bool, error) {
		ctx, cancel := cliutil.RequestContext(s.base, timeout, s.cfg.MaxOps)
		defer cancel()
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			return nil, false, budget.WrapContextErr(ctx.Err())
		}
		computeStart := time.Now()
		o, err := s.cfg.AssessFn(ctx, job)
		if err != nil {
			return nil, false, err
		}
		s.observeLatency(time.Since(computeStart))
		return o, !o.Degraded, nil
	})
}

// answer counts an answered assess or delta request and writes its 200. A
// delta names the digest it evolved from in baseDigest and is incremental
// when it computed its verdict. A computed verdict also goes to the
// subscribe streams watching its digest or that base.
func (s *Server) answer(w http.ResponseWriter, startReq time.Time, key, digest, baseDigest string, outcome *Outcome, from riskcache.Source) {
	incremental := baseDigest != "" && from == riskcache.Computed
	if incremental {
		s.deltaIncremental.Add(1)
	}
	if outcome.Degraded {
		s.degraded.Add(1)
	}
	s.completedJobs.Add(1)
	resp := &DeltaResponse{
		AssessResponse: AssessResponse{
			Cached:    from == riskcache.Hit,
			Coalesced: from == riskcache.Coalesced,
			Key:       key,
			Digest:    digest,
			ElapsedMS: float64(time.Since(startReq)) / float64(time.Millisecond),
			Outcome:   outcome,
		},
		BaseDigest:  baseDigest,
		Incremental: incremental,
	}
	if from == riskcache.Computed {
		s.broadcast(baseDigest, resp)
	}
	writeJSON(w, http.StatusOK, resp)
}

// badRequest counts a request refused at parsing or validation and writes
// its 4xx.
func (s *Server) badRequest(w http.ResponseWriter, status int, msg string) {
	s.badInput.Add(1)
	writeJSON(w, status, errorResponse{Error: msg})
}

// baseMiss writes the 404 for a digest the table registry does not hold;
// what names the digest as the route's request does.
func (s *Server) baseMiss(w http.ResponseWriter, what string) {
	s.deltaBaseMiss.Add(1)
	writeJSON(w, http.StatusNotFound, errorResponse{
		Error: "server: " + what + " unknown (evicted or never seen); POST the full table to /v1/assess and retry",
	})
}

// writeComputeError maps a computation error to the wire: budget exhaustion
// below the O(n log n) floor is a throttle (503 + adaptive Retry-After),
// anything else a 500.
func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	if budget.IsBudgetError(err) {
		s.throttled.Add(1)
		retry := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error:      "work budget exhausted before any tier could complete: " + err.Error(),
			RetryAfter: retry,
		})
		return
	}
	s.failures.Add(1)
	writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
}

// parseJob resolves an assess request's dataset and builds its job. The
// returned status is the HTTP code to use when err is non-nil.
func (s *Server) parseJob(req *AssessRequest) (*Job, int, error) {
	ft, status, err := s.resolveDataset(&req.Dataset)
	if err != nil {
		return nil, status, err
	}
	job, err := newJob(ft, req.Belief, req.Exact, req.Simulate, &req.Params)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return job, 0, nil
}

// newJob builds the job of every route: it applies the option defaults,
// parses the belief spec (none: recipe mode, where τ must lie in (0,1))
// and derives the cache key, so a delta or subscribe request
// content-addresses exactly as /v1/assess does for the same counts and
// options.
func newJob(ft *dataset.FrequencyTable, beliefSpec string, exact, simulate bool, p *Params) (*Job, error) {
	job := &Job{Table: ft, Tau: 0.1, Runs: 5, Seed: 1, Comfort: 0.5, Propagate: true, Exact: exact, Simulate: simulate}
	if p.Tau != nil {
		job.Tau = *p.Tau
	}
	if p.Runs > 0 {
		job.Runs = p.Runs
	}
	if p.Seed != nil {
		job.Seed = *p.Seed
	}
	if p.Comfort > 0 {
		job.Comfort = p.Comfort
	}
	if p.Propagate != nil {
		job.Propagate = *p.Propagate
	}
	if beliefSpec != "" {
		bf, err := belief.Parse(strings.NewReader(beliefSpec), ft.NItems)
		if err != nil {
			return nil, err
		}
		job.Belief = bf
	} else if !(job.Tau > 0 && job.Tau < 1) {
		return nil, fmt.Errorf("server: tau %v outside (0,1)", job.Tau)
	}
	job.Key = riskcache.Key(ft.Digest(), beliefDigest(job.Belief), canonicalOptions(job))
	return job, nil
}

func beliefDigest(bf *belief.Function) string {
	if bf == nil {
		return ""
	}
	return bf.Digest()
}

// canonicalOptions renders exactly the options that influence the
// computation in the job's mode, so requests differing only in irrelevant
// fields share a cache entry.
func canonicalOptions(job *Job) string {
	if job.Belief != nil {
		seed := job.Seed
		if !job.Simulate && !job.Exact {
			seed = 0 // the O-estimate is deterministic
		}
		return fmt.Sprintf("attack exact=%t simulate=%t seed=%d", job.Exact, job.Simulate, seed)
	}
	return fmt.Sprintf("recipe tau=%g runs=%d seed=%d comfort=%g propagate=%t",
		job.Tau, job.Runs, job.Seed, job.Comfort, job.Propagate)
}

// resolveDataset loads the referenced dataset as a frequency table.
func (s *Server) resolveDataset(ref *DatasetRef) (*dataset.FrequencyTable, int, error) {
	refs := 0
	for _, set := range []bool{ref.Path != "", ref.FIMI != "", len(ref.Counts) > 0} {
		if set {
			refs++
		}
	}
	if refs != 1 {
		return nil, http.StatusBadRequest,
			errors.New("server: dataset needs exactly one of path, fimi, or counts")
	}
	switch {
	case ref.Path != "":
		if s.cfg.DataDir == "" {
			return nil, http.StatusBadRequest,
				errors.New("server: dataset path references are disabled (no -data directory)")
		}
		if !filepath.IsLocal(ref.Path) {
			return nil, http.StatusBadRequest,
				fmt.Errorf("server: dataset path %q escapes the data directory", ref.Path)
		}
		ft, err := dataset.ReadFIMIFile(filepath.Join(s.cfg.DataDir, ref.Path))
		if errors.Is(err, fs.ErrNotExist) {
			return nil, http.StatusNotFound, fmt.Errorf("server: dataset %q not found", ref.Path)
		}
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		return ft, 0, nil
	case ref.FIMI != "":
		ft, err := dataset.ReadFIMICounts(strings.NewReader(ref.FIMI), 0)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		return ft, 0, nil
	default:
		ft, err := dataset.NewTable(ref.Transactions, ref.Counts)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		return ft, 0, nil
	}
}

// defaultAssess is the real pipeline: the owner's recipe without a belief,
// the hacker-side cascade with one.
func defaultAssess(ctx context.Context, job *Job) (*Outcome, error) {
	rng := rand.New(rand.NewSource(job.Seed))
	if job.Belief != nil {
		rep, err := anonrisk.AttackTableCtx(ctx, job.Belief, job.Table, anonrisk.AttackOptions{
			Exact:    job.Exact,
			Simulate: job.Simulate,
			Rng:      rng,
		})
		if err != nil {
			return nil, err
		}
		return &Outcome{
			Mode:           "attack",
			Method:         string(rep.Method),
			Degraded:       rep.Degraded,
			DegradedReason: rep.DegradedReason,
			Attack: &AttackOutcome{
				Items:           rep.Items,
				Expected:        rep.Expected,
				OEstimate:       rep.OEstimate,
				ForcedCracks:    rep.ForcedCracks,
				Simulated:       rep.Simulated,
				SimulatedStdDev: rep.SimulatedStdDev,
				Infeasible:      rep.Infeasible,
				Alpha:           job.Belief.Alpha(job.Table.Frequencies()),
			},
		}, nil
	}
	res, err := recipe.AssessRiskCtx(ctx, job.Table, recipe.Options{
		Tolerance:    job.Tau,
		Runs:         job.Runs,
		Propagate:    job.Propagate,
		AlphaComfort: job.Comfort,
		Rng:          rng,
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Mode:           "recipe",
		Method:         res.Stage.String(),
		Degraded:       res.Degraded,
		DegradedReason: res.DegradedReason,
		Recipe: &RecipeOutcome{
			Disclose:  res.Disclose,
			Items:     res.Items,
			Groups:    res.Groups,
			DeltaMed:  res.DeltaMed,
			OEFull:    res.OEFull,
			AlphaMax:  res.AlphaMax,
			Tolerance: res.Tolerance,
			Workers:   res.Workers,
			WallMS:    float64(res.Wall) / float64(time.Millisecond),
			CPUMS:     float64(res.CPU) / float64(time.Millisecond),
		},
	}, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
