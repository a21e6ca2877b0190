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

// AssessRequest is the POST /v1/assess body.
type AssessRequest struct {
	Dataset DatasetRef `json:"dataset"`
	// Belief is an optional hacker belief spec in the internal/belief.Parse
	// text format; present selects attack mode.
	Belief string `json:"belief,omitempty"`

	Tau       *float64 `json:"tau,omitempty"`     // default 0.1
	Runs      int      `json:"runs,omitempty"`    // default 5
	Seed      *int64   `json:"seed,omitempty"`    // default 1
	Comfort   float64  `json:"comfort,omitempty"` // default 0.5
	Propagate *bool    `json:"propagate,omitempty"`
	Exact     bool     `json:"exact,omitempty"`
	Simulate  bool     `json:"simulate,omitempty"`

	// TimeoutMS optionally lowers (never raises) the server's per-request
	// budget for this request.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
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
	// realPipeline: no AssessFn was injected, so a computed delta is
	// reported as incremental.
	realPipeline bool

	// tables is the digest-addressed registry of frequency tables seen by
	// /v1/assess and /v1/assess/delta; delta requests resolve base_digest
	// against it and subscribe streams resolve their watch digest. Registered
	// tables are never mutated (ApplyDiff always runs on a clone).
	tables *riskcache.Cache[*dataset.FrequencyTable]

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
	deltaIncremental atomic.Int64 // deltas computed by the real pipeline
	deltaFull        atomic.Int64 // deltas computed by an injected AssessFn
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
		subs:    make(map[*subscriber]struct{}),
		drainCh: make(chan struct{}),
	}
	s.realPipeline = s.cfg.AssessFn == nil
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
		"delta": map[string]any{
			"requests":    s.deltaRequests.Load(),
			"base_miss":   s.deltaBaseMiss.Load(),
			"incremental": s.deltaIncremental.Load(),
			"full":        s.deltaFull.Load(),
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

func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	startReq := time.Now()
	var req AssessRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badInput.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	job, status, err := s.parseJob(&req)
	if err != nil {
		s.badInput.Add(1)
		writeJSON(w, status, errorResponse{Error: err.Error()})
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

	timeout := s.requestTimeout(req.TimeoutMS)

	// The computation runs under the server's base context — not the HTTP
	// request's — so a disconnecting leader cannot kill a result that
	// coalesced followers are waiting on. The request context only bounds
	// this caller's wait on someone else's in-flight computation.
	outcome, src, err := s.cache.GetOrCompute(r.Context(), job.Key, func() (*Outcome, bool, error) {
		return s.runCompute(timeout, func(ctx context.Context) (*Outcome, error) {
			return s.cfg.AssessFn(ctx, job)
		})
	})
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	if outcome.Degraded {
		s.degraded.Add(1)
	}
	s.completedJobs.Add(1)
	resp := AssessResponse{
		Cached:    src == riskcache.Hit,
		Coalesced: src == riskcache.Coalesced,
		Key:       job.Key,
		Digest:    digest,
		ElapsedMS: float64(time.Since(startReq)) / float64(time.Millisecond),
		Outcome:   outcome,
	}
	if src == riskcache.Computed {
		s.broadcast("", &DeltaResponse{AssessResponse: resp})
	}
	writeJSON(w, http.StatusOK, resp)
}

// requestTimeout lowers (never raises) the configured budget by a client's
// timeout_ms.
func (s *Server) requestTimeout(timeoutMS int64) time.Duration {
	timeout := s.cfg.Timeout
	if timeoutMS > 0 {
		if t := time.Duration(timeoutMS) * time.Millisecond; timeout == 0 || t < timeout {
			timeout = t
		}
	}
	return timeout
}

// runCompute is the shared compute harness for assess and delta: it binds the
// work to the server's base context with the request budget, takes an
// inflight slot, and folds a successful computation's latency into the
// Retry-After EWMA. The inflight cap is the global backpressure valve:
// waiting for a slot spends the request's own deadline, so under sustained
// overload queued requests degrade to 503 + Retry-After instead of piling up
// without bound.
func (s *Server) runCompute(timeout time.Duration, do func(ctx context.Context) (*Outcome, error)) (*Outcome, bool, error) {
	ctx, cancel := cliutil.RequestContext(s.base, timeout, s.cfg.MaxOps)
	defer cancel()
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return nil, false, budget.WrapContextErr(ctx.Err())
	}
	computeStart := time.Now()
	o, err := do(ctx)
	if err != nil {
		return nil, false, err
	}
	s.observeLatency(time.Since(computeStart))
	return o, !o.Degraded, nil
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

// parseJob validates a request into a Job and derives its cache key. The
// returned status is the HTTP code to use when err is non-nil.
func (s *Server) parseJob(req *AssessRequest) (*Job, int, error) {
	ft, status, err := s.resolveDataset(&req.Dataset)
	if err != nil {
		return nil, status, err
	}
	job := &Job{Table: ft, Exact: req.Exact, Simulate: req.Simulate}
	applyOptionParams(job, req.Tau, req.Runs, req.Seed, req.Comfort, req.Propagate)
	if req.Belief != "" {
		bf, err := belief.Parse(strings.NewReader(req.Belief), ft.NItems)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		job.Belief = bf
	} else if !(job.Tau > 0 && job.Tau < 1) {
		return nil, http.StatusBadRequest, fmt.Errorf("server: tau %v outside (0,1)", job.Tau)
	}
	job.Key = riskcache.Key(ft.Digest(), beliefDigest(job.Belief), canonicalOptions(job))
	return job, 0, nil
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
