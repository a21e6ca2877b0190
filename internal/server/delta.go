// Incremental assessment over the wire: POST /v1/assess/delta takes a base
// table digest plus a sparse counts diff and answers with a full verdict for
// the evolved release; GET /v1/assess/subscribe holds an SSE stream open and
// pushes every fresh verdict for the digests it watches.
//
// A delta ships the diff, not the table; its computation is the full one.
// Each delta applies the diff to a copy of the registered base table and
// runs the server's AssessFn on that copy: for a recipe-mode job that is
// recipe.AssessRiskCtx with rand.NewSource(seed), the call a
// recipe.DeltaSession makes. The delta path composes three invariants
// proved lower in the stack:
//
//   - dataset.ApplyDiff's digest refresh: the applied table's digest equals
//     the digest of a table built from scratch with the post-diff counts.
//   - recipe.DeltaSession's equivalence property: ApplyDiff followed by
//     AssessRiskCtx is byte-identical to AssessRiskCtx on a freshly built
//     table with the same counts, options, and seed.
//   - riskcache content addressing: the delta request's cache key is
//     riskcache.Key(appliedDigest, "", options) — the SAME key a plain
//     /v1/assess with the evolved counts would use. A verdict computed
//     through the delta path therefore hits for full requests and vice
//     versa; the cache cannot tell the two paths apart, because there is
//     nothing to tell apart.
//
// Subscribe streams are deliberately NOT counted in inflightJobs: they are
// long-lived by design, and counting them would deadlock DrainWait. Instead
// BeginDrain closes drainCh — strictly after flipping readiness, so /readyz
// answers 503 before any stream learns about the shutdown — and every stream
// writes a terminal "shutdown" event and exits.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/riskcache"
)

// DeltaRequest is the POST /v1/assess/delta body. Delta assessment is
// recipe-mode only: the owner's Assess-Risk decision is the thing that gets
// re-run release after release; attack-mode estimates take a belief spec and
// go through POST /v1/assess.
type DeltaRequest struct {
	// BaseDigest names the table the diff applies to. It must be registered
	// — returned as "digest" by a previous /v1/assess or /v1/assess/delta
	// response — or the request fails 404 and the client falls back to a
	// full POST /v1/assess.
	BaseDigest string   `json:"base_digest"`
	Diff       DiffSpec `json:"diff"`
	Params
}

// DiffSpec mirrors dataset.CountsDiff on the wire.
type DiffSpec struct {
	DTransactions int  `json:"dtransactions,omitempty"`
	Items         Ints `json:"items"`
	Deltas        Ints `json:"deltas"`
}

// DeltaResponse is the POST /v1/assess/delta reply and the SSE "verdict"
// event payload; POST /v1/assess writes it too, with both of its own
// fields empty and so omitted. Digest (promoted from AssessResponse) is
// the evolved table's digest — the base_digest for the next diff in the
// chain.
type DeltaResponse struct {
	AssessResponse
	BaseDigest string `json:"base_digest,omitempty"`
	// Incremental: this delta request computed the evolved table's verdict,
	// on the table its diff produced — not a cache hit and not a coalesced
	// wait. Provenance only: the bytes are identical either way.
	Incremental bool `json:"incremental,omitempty"`
}

func (s *Server) handleAssessDelta(w http.ResponseWriter, r *http.Request) {
	startReq := time.Now()
	var req DeltaRequest
	if err := decodeBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), &req); err != nil {
		s.badRequest(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.BaseDigest == "" {
		s.badRequest(w, http.StatusBadRequest, "server: base_digest is required")
		return
	}
	base, ok := s.tables.Get(req.BaseDigest)
	if !ok {
		s.baseMiss(w, "base digest")
		return
	}
	d := &dataset.CountsDiff{DTransactions: req.Diff.DTransactions, Items: req.Diff.Items, Deltas: req.Diff.Deltas}
	applied := base.Clone()
	if err := applied.ApplyDiff(d); err != nil {
		s.badRequest(w, http.StatusBadRequest, err.Error())
		return
	}
	job, err := newJob(applied, "", false, false, &req.Params)
	if err != nil {
		s.badRequest(w, http.StatusBadRequest, err.Error())
		return
	}
	s.requests.Add(1)
	s.deltaRequests.Add(1)
	s.inflightJobs.Add(1)
	defer s.inflightJobs.Add(-1)

	// The evolved table becomes the next base candidate immediately — even
	// if this assessment then degrades or throttles, the registry entry lets
	// the client retry the chain without re-uploading.
	digest := applied.Digest()
	s.tables.Put(digest, applied)

	outcome, from, err := s.verdict(r.Context(), job, req.TimeoutMS)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	s.answer(w, startReq, job.Key, digest, req.BaseDigest, outcome, from)
}

// subscriber is one live SSE stream. digests — the set of table states whose
// fresh verdicts this stream wants — is guarded by Server.subMu and grows as
// watched tables evolve: a delta against a watched digest extends the watch
// to the evolved digest, so one subscription follows a whole release chain.
type subscriber struct {
	digests map[string]bool
	ch      chan *DeltaResponse
}

// broadcast fans a freshly computed verdict out to every stream watching its
// digest (or the base it evolved from). Sends never block: a stream that
// cannot keep up loses events (counted in subscribe.dropped), it does not
// back-pressure the assessment path.
func (s *Server) broadcast(baseDigest string, resp *DeltaResponse) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for sub := range s.subs {
		if !sub.digests[resp.Digest] && (baseDigest == "" || !sub.digests[baseDigest]) {
			continue
		}
		sub.digests[resp.Digest] = true
		select {
		//lint:allow maporder subscriber streams are independent; cross-subscriber delivery order is not part of the stream contract
		case sub.ch <- resp:
			s.subEvents.Add(1)
		default:
			s.subDropped.Add(1)
		}
	}
}

func (s *Server) addSub(sub *subscriber) {
	s.subMu.Lock()
	s.subs[sub] = struct{}{}
	s.subMu.Unlock()
	s.subActive.Add(1)
}

func (s *Server) removeSub(sub *subscriber) {
	s.subMu.Lock()
	delete(s.subs, sub)
	s.subMu.Unlock()
	s.subActive.Add(-1)
}

// writeSSE emits one Server-Sent Event with a JSON payload.
func writeSSE(w io.Writer, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	startReq := time.Now()
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server: draining"})
		return
	}
	q := r.URL.Query()
	digest := q.Get("digest")
	if digest == "" {
		s.badRequest(w, http.StatusBadRequest, "server: digest query parameter is required")
		return
	}
	ft, ok := s.tables.Get(digest)
	if !ok {
		s.baseMiss(w, "digest")
		return
	}
	var p Params
	if err := parseSubscribeParams(q, &p); err != nil {
		s.badRequest(w, http.StatusBadRequest, err.Error())
		return
	}
	job, err := newJob(ft, "", false, false, &p)
	if err != nil {
		s.badRequest(w, http.StatusBadRequest, err.Error())
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.failures.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "server: streaming unsupported"})
		return
	}

	// The initial verdict goes through the shared cache BEFORE the upgrade
	// to SSE, so errors can still be reported as plain HTTP statuses and a
	// warm cache costs the stream nothing. The stream itself is not counted
	// in inflightJobs — subscribe connections are long-lived by design and
	// drain via drainCh, not DrainWait.
	outcome, from, err := s.verdict(r.Context(), job, 0)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}

	sub := &subscriber{digests: map[string]bool{digest: true}, ch: make(chan *DeltaResponse, 8)}
	s.addSub(sub)
	defer s.removeSub(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeSSE(w, "verdict", &DeltaResponse{AssessResponse: AssessResponse{
		Cached:    from == riskcache.Hit,
		Coalesced: from == riskcache.Coalesced,
		Key:       job.Key,
		Digest:    digest,
		ElapsedMS: float64(time.Since(startReq)) / float64(time.Millisecond),
		Outcome:   outcome,
	}})
	flusher.Flush()

	// Ticker, not time.After: a per-iteration time.After leaks its timer
	// until it fires, which on a long-lived stream is an unbounded pile of
	// pending timers (riskvet's streamticker rule pins this).
	keep := time.NewTicker(s.cfg.KeepAlive)
	defer keep.Stop()
	for {
		select {
		case resp := <-sub.ch:
			writeSSE(w, "verdict", resp)
			flusher.Flush()
		case <-keep.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case <-s.drainCh:
			// draining flipped before drainCh closed (BeginDrain's ordering
			// contract), so readiness is already 503 when clients see this.
			writeSSE(w, "shutdown", map[string]string{"reason": "draining"})
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// parseSubscribeParams reads the recipe options from the subscribe query
// string, under the JSON names of Params.
func parseSubscribeParams(q map[string][]string, p *Params) error {
	get := func(name string) string {
		if vs := q[name]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	if v := get("tau"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("server: bad tau %q: %w", v, err)
		}
		p.Tau = &f
	}
	if v := get("runs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("server: bad runs %q: %w", v, err)
		}
		p.Runs = n
	}
	if v := get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("server: bad seed %q: %w", v, err)
		}
		p.Seed = &n
	}
	if v := get("comfort"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("server: bad comfort %q: %w", v, err)
		}
		p.Comfort = f
	}
	if v := get("propagate"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("server: bad propagate %q: %w", v, err)
		}
		p.Propagate = &b
	}
	return nil
}
