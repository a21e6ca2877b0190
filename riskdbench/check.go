package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"time"

	anonrisk "repro"
	"repro/internal/belief"
	"repro/internal/cliutil"
	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/recipe"
	"repro/internal/server"
)

// Request options riskd applies when a body leaves them out; the streams
// never set them.
const (
	defaultTau     = 0.1
	defaultRuns    = 5
	defaultSeed    = 1
	defaultComfort = 0.5
)

// Expected methods, as riskd names them on the wire.
const (
	methodSearch  = "alpha binary search"
	methodSampled = "sampled"
)

// requestCtx is the context riskd computes under: one worker, the default
// 30-second budget, no operation limit.
func requestCtx() (context.Context, context.CancelFunc) {
	return cliutil.RequestContext(parallel.WithWorkers(context.Background(), 1), 30*time.Second, 0)
}

func recipeOptions() recipe.Options {
	return recipe.Options{
		Tolerance:    defaultTau,
		Runs:         defaultRuns,
		Propagate:    true,
		AlphaComfort: defaultComfort,
		Rng:          rand.New(rand.NewSource(defaultSeed)),
	}
}

// recipeOutcome is the wire outcome riskd builds from a recipe verdict.
func recipeOutcome(res *recipe.Result) *server.Outcome {
	return &server.Outcome{
		Mode:           "recipe",
		Method:         res.Stage.String(),
		Degraded:       res.Degraded,
		DegradedReason: res.DegradedReason,
		Recipe: &server.RecipeOutcome{
			Disclose:  res.Disclose,
			Items:     res.Items,
			Groups:    res.Groups,
			DeltaMed:  res.DeltaMed,
			OEFull:    res.OEFull,
			AlphaMax:  res.AlphaMax,
			Tolerance: res.Tolerance,
			Workers:   res.Workers,
		},
	}
}

// attackOutcome is the wire outcome riskd builds from an attack report.
func attackOutcome(rep anonrisk.AttackReport, bf *belief.Function, ft *dataset.FrequencyTable) *server.Outcome {
	return &server.Outcome{
		Mode:           "attack",
		Method:         string(rep.Method),
		Degraded:       rep.Degraded,
		DegradedReason: rep.DegradedReason,
		Attack: &server.AttackOutcome{
			Items:           rep.Items,
			Expected:        rep.Expected,
			OEstimate:       rep.OEstimate,
			ForcedCracks:    rep.ForcedCracks,
			Simulated:       rep.Simulated,
			SimulatedStdDev: rep.SimulatedStdDev,
			Infeasible:      rep.Infeasible,
			Alpha:           bf.Alpha(ft.Frequencies()),
		},
	}
}

// expected is the library's answer for one request: the verdict and the
// digest of the table it is about.
type expected struct {
	outcome *server.Outcome
	digest  string
	err     error
}

// libraryAssess answers an assess request in-process, as riskd's pipeline
// would, without going through the server.
func libraryAssess(body []byte) expected {
	req, err := decodeAssess(body)
	if err != nil {
		return expected{err: err}
	}
	ft, err := dataset.NewTable(req.Dataset.Transactions, req.Dataset.Counts)
	if err != nil {
		return expected{err: err}
	}
	ctx, cancel := requestCtx()
	defer cancel()
	if req.Belief == "" {
		res, err := recipe.AssessRiskCtx(ctx, ft, recipeOptions())
		if err != nil {
			return expected{err: err}
		}
		return expected{outcome: recipeOutcome(res), digest: ft.Digest()}
	}
	bf, err := belief.Parse(strings.NewReader(req.Belief), ft.NItems)
	if err != nil {
		return expected{err: err}
	}
	rep, err := anonrisk.AttackTableCtx(ctx, bf, ft, anonrisk.AttackOptions{
		Simulate: req.Simulate,
		Rng:      rand.New(rand.NewSource(defaultSeed)),
	})
	if err != nil {
		return expected{err: err}
	}
	return expected{outcome: attackOutcome(rep, bf, ft), digest: ft.Digest()}
}

// libraryChain answers diffs 0..last of the delta chain in-process, on two
// cores: each half of the chain runs on a DeltaSession built over the table
// the chain holds where that half starts. The last verdict is also checked
// against a full assessment of the evolved table.
func libraryChain(s *stream, last int) []expected {
	out := make([]expected, last+1)
	mid := (last + 1) / 2
	var wg sync.WaitGroup
	for _, seg := range [][2]int{{0, mid}, {mid, last + 1}} {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			chainSegment(s, lo, hi, out)
		}(seg[0], seg[1])
	}
	wg.Wait()

	ctx, cancel := requestCtx()
	defer cancel()
	evolved, err := chainTable(s, last+1)
	if err == nil {
		var full *recipe.Result
		if full, err = recipe.AssessRiskCtx(ctx, evolved, recipeOptions()); err == nil {
			if o := out[last].outcome; o != nil && !sameOutcome(o, recipeOutcome(full)) {
				err = fmt.Errorf("delta verdict differs from a full assessment of the evolved table")
			}
		}
	}
	if err != nil && out[last].err == nil {
		out[last].err = err
	}
	return out
}

// chainSegment answers diffs lo..hi-1 into out.
func chainSegment(s *stream, lo, hi int, out []expected) {
	ft, err := chainTable(s, lo)
	if err != nil {
		for j := lo; j < hi; j++ {
			out[j].err = err
		}
		return
	}
	ctx, cancel := requestCtx()
	defer cancel()
	opts := recipeOptions()
	opts.Rng = nil
	sess, err := recipe.NewDeltaSessionCtx(ctx, ft, defaultSeed, opts)
	for j := lo; j < hi; j++ {
		if err != nil {
			out[j].err = err
			continue
		}
		d, err := decodeDiff(s.body(1 + j))
		if err != nil {
			out[j].err = err
			continue
		}
		res, err := sess.ApplyDiffCtx(ctx, d)
		if err != nil {
			out[j].err = err
			continue
		}
		out[j] = expected{outcome: recipeOutcome(res), digest: sess.Digest()}
	}
}

// chainTable is the delta chain's base table advanced by its first k diffs.
// Stream request 0 registers the base; request j+1 carries diff j.
func chainTable(s *stream, k int) (*dataset.FrequencyTable, error) {
	base, err := decodeAssess(s.body(0))
	if err != nil {
		return nil, err
	}
	ft, err := dataset.NewTable(base.Dataset.Transactions, base.Dataset.Counts)
	if err != nil {
		return nil, err
	}
	for j := 0; j < k; j++ {
		d, err := decodeDiff(s.body(1 + j))
		if err != nil {
			return nil, err
		}
		if err := ft.ApplyDiff(d); err != nil {
			return nil, err
		}
	}
	return ft, nil
}

// sameOutcome compares two verdicts, timing fields excluded.
func sameOutcome(a, b *server.Outcome) bool {
	strip := func(o *server.Outcome) server.Outcome {
		c := *o
		if c.Recipe != nil {
			r := *c.Recipe
			r.WallMS, r.CPUMS = 0, 0
			c.Recipe = &r
		}
		return c
	}
	return reflect.DeepEqual(strip(a), strip(b))
}

// checkReport is the correctness summary of a timed phase.
type checkReport struct {
	ok    int
	first string
}

func (c *checkReport) fail(i int, format string, args ...any) {
	if c.first == "" {
		c.first = fmt.Sprintf("request %d: ", i) + fmt.Sprintf(format, args...)
	}
}

// check compares every timed response with the library's answer for the
// same input and with the workload's expected path. The library runs here,
// after the clock stopped, on every core.
func check(s *stream, t *timed) *checkReport {
	n := len(t.replies)
	want := make([]expected, n)
	// baseDigest is the library's digest of the table each delta request
	// applies to: a response that echoes it continues an unbroken chain,
	// since every response digest is checked against the library too.
	baseDigest := make([]string, n)
	switch {
	case s.name == retailDelta:
		// Stream request j carries diff j-1, applied to the table the
		// chain holds after diff j-2. The fill ends on diff 0, so every
		// timed request has j >= 2.
		last := 0
		for _, r := range t.replies {
			last = max(last, r.idx)
		}
		chain := libraryChain(s, last-1)
		for i, r := range t.replies {
			want[i] = chain[r.idx-1]
			if r.idx >= 2 {
				baseDigest[i] = chain[r.idx-2].digest
			}
		}
	case s.repeat:
		w := libraryAssess(s.body(len(s.reqs) - 1))
		for i := range want {
			want[i] = w
		}
	default:
		var wg sync.WaitGroup
		workers := 2
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += workers {
					want[i] = libraryAssess(s.body(t.replies[i].idx))
				}
			}(w)
		}
		wg.Wait()
	}

	rep := &checkReport{}
	for i := range t.replies {
		r := &t.replies[i]
		body := t.body(i)
		if err := t.errs[i]; err != nil {
			rep.fail(i, "%v", err)
			continue
		}
		if r.status != http.StatusOK {
			rep.fail(i, "HTTP %d: %s", r.status, bytes.TrimSpace(body))
			continue
		}
		var got server.DeltaResponse
		if err := json.Unmarshal(body, &got); err != nil || got.Outcome == nil {
			rep.fail(i, "undecodable response: %v", err)
			continue
		}
		w := want[i]
		switch {
		case w.err != nil:
			rep.fail(i, "library: %v", w.err)
		case !sameOutcome(got.Outcome, w.outcome):
			rep.fail(i, "verdict differs from the library's")
		case got.Digest != w.digest:
			rep.fail(i, "digest %s, library %s", got.Digest, w.digest)
		case !onPath(s.name, &got, baseDigest[i]):
			rep.fail(i, "off the expected path (cached=%t method=%q incremental=%t)", got.Cached, got.Method, got.Incremental)
		default:
			rep.ok++
		}
	}
	return rep
}

// onPath reports whether a response took the workload's expected path.
func onPath(name string, got *server.DeltaResponse, baseDigest string) bool {
	switch name {
	case retailHot:
		return got.Cached
	case pumsbCold:
		return !got.Cached && got.Method == methodSearch
	case connectSampled:
		return !got.Cached && got.Method == methodSampled
	case retailDelta:
		return !got.Cached && got.Incremental && baseDigest != "" && got.BaseDigest == baseDigest
	}
	return false
}
