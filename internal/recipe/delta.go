package recipe

import (
	"context"
	"math/rand"

	"repro/internal/dataset"
)

// DeltaSession assesses an evolving release: it owns a copy of the frequency
// table, applies each counts diff to it (dataset.ApplyDiff), and runs the full
// recipe, AssessRiskCtx, on the result.
//
// The equivalence invariant (pinned by TestDeltaSessionMatchesFullAssess):
// after any chain of diffs, AssessCtx returns a Result byte-identical —
// verdict, stage, every float compared with ==, digests included — to
// AssessRiskCtx on a fresh table with the same counts, the same options, and
// a fresh rng seeded with the session seed, at any worker count. It holds by
// construction, since AssessCtx is exactly that call on the session's table.
// The session therefore composes soundly with riskcache content addressing:
// a verdict computed through the delta path is THE verdict for that table
// digest.
//
// Sessions are not safe for concurrent use.
type DeltaSession struct {
	opts Options
	seed int64
	ft   *dataset.FrequencyTable // owned; only ApplyDiffCtx mutates it
	last *Result
}

// NewDeltaSessionCtx builds a session for the given table. The table is
// cloned; the caller's copy is never touched. seed plays the role opts.Rng
// plays in AssessRiskCtx — any Rng already set in opts is ignored. No
// assessment is run yet: call AssessCtx for the current verdict or
// ApplyDiffCtx to advance.
func NewDeltaSessionCtx(ctx context.Context, ft *dataset.FrequencyTable, seed int64, opts Options) (*DeltaSession, error) {
	opts.Rng = rand.New(rand.NewSource(seed))
	if _, err := opts.withDefaults(); err != nil {
		return nil, err
	}
	return &DeltaSession{opts: opts, seed: seed, ft: ft.Clone()}, nil
}

// Digest returns the content digest of the session's current table — the
// address its verdicts cache under.
func (s *DeltaSession) Digest() string { return s.ft.Digest() }

// Result returns the most recent verdict, or nil before the first
// assessment.
func (s *DeltaSession) Result() *Result { return s.last }

// ApplyDiffCtx applies a counts diff and returns the fresh verdict. A diff
// that fails validation leaves the session untouched (the table rejects it
// before mutating). An assessment error (budget exhaustion below the floor,
// canceled context) leaves the diff applied; a later AssessCtx assesses the
// evolved table afresh.
func (s *DeltaSession) ApplyDiffCtx(ctx context.Context, d *dataset.CountsDiff) (*Result, error) {
	if err := s.ft.ApplyDiff(d); err != nil {
		return nil, err
	}
	return s.AssessCtx(ctx)
}

// AssessCtx runs AssessRiskCtx on the session's current table with a fresh
// rng seeded with the session seed.
func (s *DeltaSession) AssessCtx(ctx context.Context) (*Result, error) {
	opts := s.opts
	opts.Rng = rand.New(rand.NewSource(s.seed))
	res, err := AssessRiskCtx(ctx, s.ft, opts)
	if err != nil {
		return nil, err
	}
	s.last = res
	return res, nil
}
