package recipe

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
)

// ErrSessionBroken marks a DeltaSession whose internal structures may be
// inconsistent after a mid-patch failure; it must be discarded and rebuilt
// from the table.
var ErrSessionBroken = errors.New("recipe: delta session broken by earlier failure")

// DeltaSession assesses an evolving release incrementally: it owns a copy of
// the frequency table plus every derived structure Assess-Risk needs —
// grouping, δ_med belief function, consistency graph, O-estimate
// contributions, α-search item orders — and on each counts diff patches them
// in place (dataset.ApplyDiffGrouping, bipartite.Rebin, core.OEDelta)
// instead of rebuilding from scratch.
//
// The equivalence invariant (pinned by TestDeltaSessionMatchesFullAssess):
// after any chain of diffs, AssessCtx returns a Result byte-identical —
// verdict, stage, every float compared with ==, digests included — to
// AssessRiskCtx on a fresh table with the same counts, the same options, and
// a fresh rng seeded with the session seed, at any worker count. The session
// therefore composes soundly with riskcache content addressing: a verdict
// computed through the delta path is THE verdict for that table digest.
//
// Sessions are not safe for concurrent use; the server checks one out
// exclusively per request.
type DeltaSession struct {
	opts Options
	seed int64

	ft       *dataset.FrequencyTable // owned; only ApplyDiffCtx mutates it
	gr       *dataset.Grouping
	deltaMed float64
	g        *bipartite.Graph
	oe       *core.OEDelta // nil when opts.Propagate (no restricted form)

	// orders caches the α-search item orders. AssessRiskCtx draws them from
	// opts.Rng at search-construction time; with a fresh rand.NewSource(seed)
	// they are the first Runs permutations of that stream, which depend only
	// on (seed, runs, n) — all fixed for the session's lifetime — so one
	// generation serves every diff bit-identically.
	orders [][]int

	dirty  []int // items whose OE contribution awaits recomputation, ascending
	last   *Result
	broken bool
}

// NewDeltaSessionCtx builds a session for the given table. The table is
// cloned; the caller's copy is never touched. seed plays the role opts.Rng
// plays in AssessRiskCtx — any Rng already set in opts is ignored. No
// assessment is run yet: call AssessCtx for the current verdict or
// ApplyDiffCtx to advance.
func NewDeltaSessionCtx(ctx context.Context, ft *dataset.FrequencyTable, seed int64, opts Options) (*DeltaSession, error) {
	rng := rand.New(rand.NewSource(seed))
	opts.Rng = rng
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &DeltaSession{
		opts:     opts,
		seed:     seed,
		ft:       ft.Clone(),
		deltaMed: -1,
	}
	s.gr = dataset.GroupItems(s.ft)
	s.deltaMed = s.gr.MedianGap()
	bf := belief.UniformWidth(s.ft.Frequencies(), s.deltaMed)
	if s.g, err = bipartite.Build(bf, s.gr); err != nil {
		return nil, err
	}
	if !opts.Propagate {
		if s.oe, err = core.NewOEDeltaCtx(ctx, s.g); err != nil {
			return nil, err
		}
	}
	s.orders = uniformOrders(s.ft.NItems, opts.Runs, rng)
	return s, nil
}

// Digest returns the content digest of the session's current table — the
// address its verdicts cache under.
func (s *DeltaSession) Digest() string { return s.ft.Digest() }

// Items returns the domain size n.
func (s *DeltaSession) Items() int { return s.ft.NItems }

// Result returns the most recent verdict, or nil before the first
// assessment.
func (s *DeltaSession) Result() *Result { return s.last }

// Broken reports whether a mid-patch failure has invalidated the session.
func (s *DeltaSession) Broken() bool { return s.broken }

// ApplyDiffCtx applies a counts diff and returns the fresh verdict. A diff
// that fails validation leaves the session fully intact (the table rejects
// it before mutating); a failure after the table moved marks the session
// broken. Assessment errors (budget exhaustion below the floor, canceled
// context) do NOT break the session — the patched structures stay
// consistent and a later AssessCtx retries the pending O-estimate work.
func (s *DeltaSession) ApplyDiffCtx(ctx context.Context, d *dataset.CountsDiff) (*Result, error) {
	if s.broken {
		return nil, ErrSessionBroken
	}
	if err := s.ft.ApplyDiff(d); err != nil {
		return nil, err
	}
	postGr, rd, err := dataset.ApplyDiffGrouping(s.gr, s.ft, d)
	if err != nil {
		s.broken = true
		return nil, fmt.Errorf("recipe: delta regroup: %w", err)
	}
	postMed := postGr.MedianGap()
	postBF := belief.UniformWidth(s.ft.Frequencies(), postMed)
	changed, err := s.g.Rebin(postBF, bipartite.RebinUpdate{
		Grouping:         postGr,
		Delta:            rd,
		ChangedIntervals: rd.Moved,
		// δ_med or the transaction total moving shifts every belief interval
		// (UniformWidth recenters on the new frequencies with the new width);
		// otherwise only the moved items' intervals differ.
		AllIntervals: postMed != s.deltaMed || d.DTransactions != 0,
	})
	if err != nil {
		s.broken = true
		return nil, fmt.Errorf("recipe: delta rebin: %w", err)
	}
	s.gr, s.deltaMed = postGr, postMed
	s.dirty = mergeAscending(s.dirty, changed)
	return s.AssessCtx(ctx)
}

// AssessCtx runs the staged Assess-Risk decision on the session's current
// state, recomputing only the O-estimate contributions invalidated since the
// last assessment.
func (s *DeltaSession) AssessCtx(ctx context.Context) (*Result, error) {
	if s.broken {
		return nil, ErrSessionBroken
	}
	var step6 *core.OETerms // the terms step 6 computed, when it propagated
	oeFull := func(ctx context.Context) (float64, error) {
		if s.oe == nil { // propagation has no restricted form; full pass on the patched graph
			t, err := core.GraphTermsCtx(ctx, s.g, true)
			if err != nil {
				return 0, err
			}
			step6 = t
			return t.SumCtx(ctx, bitset.Set{})
		}
		oe, err := s.oe.RefreshCtx(ctx, s.dirty)
		if err != nil {
			// Keep dirty: recompute is idempotent against the current graph,
			// so the next assessment heals a partially-applied refresh.
			return 0, err
		}
		s.dirty = s.dirty[:0]
		return oe.Value, nil
	}
	search := func(context.Context) (*AlphaSearch, error) {
		// With propagation the search scans step 6's terms, so the
		// assessment propagates once. The plain step 6 ran through OEDelta,
		// so the search reads the patched graph's reciprocals per call.
		terms := freshTerms(s.g, false)
		if step6 != nil {
			terms = fixedTerms(step6)
		}
		return &AlphaSearch{n: s.ft.NItems, orders: s.orders, terms: terms}, nil
	}
	res, err := assessStaged(ctx, s.ft.NItems, s.opts, s.gr, oeFull, search)
	if err != nil {
		return nil, err
	}
	s.last = res
	return res, nil
}

// mergeAscending merges two ascending int slices into a, deduplicating.
func mergeAscending(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append(a, b...)
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
