package anonrisk

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/anonymize"
	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fim"
	"repro/internal/matching"
	"repro/internal/recipe"
)

// Re-exported core types. The aliases make the public API self-contained
// while keeping each concern implemented (and documented in depth) in its
// own internal package.
type (
	// Database is a transaction database over a dense item universe.
	Database = dataset.Database
	// Transaction is one itemset of a database.
	Transaction = dataset.Transaction
	// FrequencyTable is the support-count view of a database — all the
	// paper's risk analyses depend on the data only through it.
	FrequencyTable = dataset.FrequencyTable
	// Stats is a Figure 9-style frequency summary.
	Stats = dataset.Stats

	// BeliefFunction models the hacker's partial information: a frequency
	// interval per original item.
	BeliefFunction = belief.Function
	// Interval is a closed frequency range.
	Interval = belief.Interval

	// Mapping is a secret anonymization bijection.
	Mapping = anonymize.Mapping
	// CrackMapping is a hacker's 1-1 de-anonymization guess.
	CrackMapping = anonymize.CrackMapping

	// Graph is the bipartite consistency graph between anonymized and
	// original items induced by a belief function.
	Graph = bipartite.Graph

	// Assessment is the outcome of the Assess-Risk recipe.
	Assessment = recipe.Result
	// AssessOptions configures the recipe.
	AssessOptions = recipe.Options

	// FrequentItemset pairs an itemset with its support.
	FrequentItemset = fim.FrequentItemset

	// SamplerConfig configures the Section 7.1 matching-space MCMC sampler
	// used by the simulation / degraded tiers of AttackTableCtx.
	SamplerConfig = matching.Config
)

// Re-exported budget sentinels, so callers can match degradation and
// cancellation outcomes without importing internal packages.
var (
	// ErrBudgetExceeded marks a computation abandoned because its wall-clock
	// deadline or operation limit ran out. The degradation cascade handles it
	// internally; it only escapes when even the floor cannot run.
	ErrBudgetExceeded = budget.ErrBudgetExceeded
	// ErrCanceled marks an explicit context cancellation — a hard abort that
	// is never degraded around.
	ErrCanceled = budget.ErrCanceled
)

// WithMaxOps returns a context carrying an operation-count limit that every
// budgeted computation started under it respects (each bounded individually).
func WithMaxOps(ctx context.Context, maxOps int64) context.Context {
	return budget.WithMaxOps(ctx, maxOps)
}

// Method identifies which tier of the degradation cascade produced an
// estimate.
type Method string

const (
	// MethodExact is the permanent-based exact expectation (Section 4.1).
	MethodExact Method = "exact"
	// MethodSampled is the matching-space MCMC estimate (Section 7.1).
	MethodSampled Method = "sampled"
	// MethodOEstimate is the O(n log n) O-estimate (Figure 5), the cascade
	// floor that always completes.
	MethodOEstimate Method = "oestimate"
)

// recoverToError converts a panic escaping a public entry point into an
// ordinary error, so a malformed input or an internal bug cannot crash the
// embedding process. Use with named return values:
//
//	defer recoverToError("AttackTableCtx", &err)
func recoverToError(op string, errp *error) {
	if r := recover(); r != nil {
		*errp = fmt.Errorf("anonrisk: %s: internal panic: %v", op, r)
	}
}

// NewDatabase builds a database over n items; see dataset.New.
func NewDatabase(n int, txs []Transaction) (*Database, error) { return dataset.New(n, txs) }

// ReadFIMI parses a FIMI-format database (one transaction per line).
func ReadFIMI(r io.Reader) (*Database, error) { return dataset.ReadFIMI(r, 0) }

// WriteFIMI writes a database in FIMI format.
func WriteFIMI(w io.Writer, db *Database) error { return dataset.WriteFIMI(w, db) }

// ComputeStats summarizes a database's frequency structure as in Figure 9.
func ComputeStats(name string, db *Database) Stats {
	return dataset.ComputeStats(name, db.Table())
}

// Anonymize draws a uniformly random anonymization bijection and applies it,
// returning the releasable database and the secret key. The release has
// identical support structure and — by the commutation of mining with
// renaming — identical frequent itemsets up to the key.
func Anonymize(db *Database, rng *rand.Rand) (release *Database, key *Mapping, err error) {
	defer recoverToError("Anonymize", &err)
	key = anonymize.NewRandomMapping(db.Items(), rng)
	release, err = key.Apply(db)
	if err != nil {
		return nil, nil, err
	}
	return release, key, nil
}

// AssessRiskCtx runs Algorithm Assess-Risk (Figure 8) on the database with
// explicit options; unset Runs and AlphaComfort take the recipe's defaults
// (5 subset runs, comfort level 0.5), and Propagate is off unless set. When
// the budget runs out mid-search the assessment degrades gracefully: the
// result carries the largest α proven safe so far (a conservative lower
// bound) with Degraded set, instead of failing.
func AssessRiskCtx(ctx context.Context, db *Database, opts AssessOptions) (a *Assessment, err error) {
	defer recoverToError("AssessRiskCtx", &err)
	return recipe.AssessRiskCtx(ctx, db.Table(), opts)
}

// NewBelief builds a belief function from one frequency interval per item.
func NewBelief(intervals []Interval) (*BeliefFunction, error) { return belief.New(intervals) }

// Ignorant returns the no-knowledge belief function over n items (every
// interval [0,1]; expected cracks exactly 1 by Lemma 1).
func Ignorant(n int) *BeliefFunction { return belief.Ignorant(n) }

// ExactKnowledge returns the compliant point-valued belief function for a
// database: the hacker knows every frequency exactly (expected cracks = the
// number of distinct frequencies, Lemma 3).
func ExactKnowledge(db *Database) *BeliefFunction {
	return belief.PointValued(db.Frequencies())
}

// BallparkKnowledge returns the compliant interval belief function the
// recipe uses: every item's frequency guessed within ±delta. Pass delta <= 0
// to use δ_med, the database's median frequency-group gap.
func BallparkKnowledge(db *Database, delta float64) *BeliefFunction {
	if delta <= 0 {
		delta = dataset.GroupItems(db.Table()).MedianGap()
	}
	return belief.UniformWidth(db.Frequencies(), delta)
}

// BeliefFromSample builds the hacker's belief function from a sample of the
// data (Section 7.4): intervals of half-width equal to the sample's median
// frequency-group gap around the sampled frequencies.
func BeliefFromSample(sample *Database) *BeliefFunction {
	st := sample.Table()
	return belief.FromSample(st.Frequencies(), dataset.GroupItems(st).MedianGap())
}

// ConsistencyGraph builds the bipartite graph of consistent crack mappings
// for a belief function against the database's observed frequencies.
func ConsistencyGraph(bf *BeliefFunction, db *Database) (*Graph, error) {
	return bipartite.Build(bf, dataset.GroupItems(db.Table()))
}

// AttackOptions configures AttackTableCtx.
type AttackOptions struct {
	// Exact requests the permanent-based exact expectation (Section 4.1) as
	// the preferred tier. It is #P-complete, so it only runs for domains with
	// at most bipartite.MaxExactN items and degrades to sampling (then to the
	// O-estimate) when the budget runs out.
	Exact bool
	// Simulate requests the matching-space MCMC estimate (Section 7.1),
	// either as the preferred tier (when Exact is false) or as the first
	// fallback.
	Simulate bool
	// Sampler configures the MCMC sampler; zero value means matching's
	// defaults.
	Sampler SamplerConfig
	// Rng seeds the sampler. Nil is fine when neither Exact nor Simulate is
	// set.
	Rng *rand.Rand
}

// floorEstimate builds the consistency graph and runs the cascade floor
// under ctx: the O-estimate with degree-1 propagation, or the Section 5.3
// per-item form with Infeasible set when propagation proves that no perfect
// matching exists. A non-zero interest counts only its members.
func floorEstimate(ctx context.Context, bf *BeliefFunction, ft *FrequencyTable, interest bitset.Set) (*Graph, AttackReport, error) {
	rep := AttackReport{Items: ft.NItems, Method: MethodOEstimate}
	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		return nil, rep, err
	}
	oe, err := core.OEstimateGraphCtx(ctx, g, core.OEOptions{Propagate: true, Interest: interest})
	if errors.Is(err, bipartite.ErrInfeasible) {
		rep.Infeasible = true
		oe, err = core.OEstimateGraphCtx(ctx, g, core.OEOptions{Interest: interest})
	}
	if err != nil {
		return nil, rep, err
	}
	rep.OEstimate = oe.Value
	rep.ForcedCracks = oe.ForcedCracks
	rep.Expected = oe.Value
	return g, rep, nil
}

// AttackTableCtx quantifies what a hacker holding bf achieves against the
// anonymized release of a frequency table; a Database holder passes
// db.Table(). Every tier depends on the data only through its support
// counts, so callers that never materialize transactions — the riskd
// service, streaming CLI paths — run the identical cascade.
//
// The report always carries the O-estimate of expected cracks, with
// degree-1 propagation when the consistency graph admits a perfect matching.
// When it does not — common for partially wrong (α-compliant) belief
// functions — Infeasible is set, the O-estimate falls back to the paper's
// Section 5.3 per-item form Σ_{compliant} 1/O_x (which needs no global
// matching), and the tiers below are skipped. opts picks the preferred tier,
// run under a work budget with a degradation cascade instead of an error
// when the budget runs out:
//
//	exact (permanent DP)  →  sampled (MCMC)  →  O-estimate
//
// Each tier is attempted under whatever budget remains; on
// budget.ErrBudgetExceeded the cascade falls through to the next tier. The
// O-estimate floor is O(n log n) and always completes, so an expired deadline
// yields a report with Degraded set rather than an error. An explicitly
// canceled context is a hard abort (ErrCanceled) — cancellation means "stop",
// not "hurry up".
//
// The report's Method records the tier that produced Expected; Degraded and
// DegradedReason record whether (and why) a preferred tier was abandoned.
func AttackTableCtx(ctx context.Context, bf *BeliefFunction, ft *FrequencyTable, opts AttackOptions) (rep AttackReport, err error) {
	defer recoverToError("AttackTableCtx", &err)
	if cerr := ctx.Err(); cerr != nil && !errors.Is(cerr, context.DeadlineExceeded) {
		return rep, budget.WrapContextErr(cerr)
	}

	// Floor first: the O-estimate must be available whatever happens to the
	// expensive tiers, so it runs detached from the deadline (but aborts on
	// explicit cancellation, checked above and inside the cascade below).
	// Its consistency graph then serves every tier.
	g, rep, err := floorEstimate(context.WithoutCancel(ctx), bf, ft, bitset.Set{})
	if err != nil || rep.Infeasible || (!opts.Exact && !opts.Simulate) {
		return rep, err
	}

	// Exact tier.
	if opts.Exact && ft.NItems <= bipartite.MaxExactN {
		v, eerr := core.ExactExpectedCracksCtx(ctx, g.ToExplicit())
		switch {
		case eerr == nil:
			rep.Expected = v
			rep.Method = MethodExact
			return rep, nil
		case budget.Degradable(eerr):
			rep.Degraded = true
			rep.DegradedReason = "exact tier: " + eerr.Error()
		default:
			return rep, eerr
		}
	} else if opts.Exact {
		rep.Degraded = true
		rep.DegradedReason = fmt.Sprintf("exact tier: %d items exceed MaxExactN=%d",
			ft.NItems, bipartite.MaxExactN)
	}

	// Sampling tier — the first fallback of the cascade, and the preferred
	// tier when only Simulate was requested.
	est, serr := matching.EstimateCracksCtx(ctx, g, opts.Sampler, opts.Rng)
	switch {
	case errors.Is(serr, bipartite.ErrInfeasible):
		rep.Infeasible = true
		return rep, nil
	case serr == nil:
		rep.Simulated = est.Mean
		rep.SimulatedStdDev = est.StdDev
		rep.Expected = est.Mean
		rep.Method = MethodSampled
		return rep, nil
	case budget.Degradable(serr):
		rep.Degraded = true
		if rep.DegradedReason != "" {
			rep.DegradedReason += "; "
		}
		rep.DegradedReason += "sampling tier: " + serr.Error()
		// Fall through to the O-estimate floor already in the report.
		return rep, nil
	default:
		return rep, serr
	}
}

// AttackReport summarizes an attack: AttackTableCtx or AttackSubsetCtx.
type AttackReport struct {
	Items           int     // domain size
	OEstimate       float64 // O-estimate of expected cracks
	ForcedCracks    int     // items propagation forces onto their own anonymized twin: certain cracks
	Simulated       float64 // simulation estimate (0 unless the sampler ran)
	SimulatedStdDev float64
	// Infeasible marks that no globally consistent perfect matching exists;
	// OEstimate then carries the Section 5.3 per-item fallback.
	Infeasible bool

	// Expected is the best available estimate of the expected number of
	// cracks; Method records which cascade tier produced it.
	Expected float64
	Method   Method
	// Degraded marks that a preferred tier was requested but abandoned for
	// budget reasons; DegradedReason says which and why.
	Degraded       bool
	DegradedReason string
}

// OEstimateFraction returns the O-estimate as a fraction of the domain.
func (r AttackReport) OEstimateFraction() float64 { return r.OEstimate / float64(r.Items) }

// AttackSubsetCtx is the O-estimate of AttackTableCtx restricted to the
// owner's items of interest — only the marked items count toward the
// estimate, the Lemma 2/4 view (e.g. only the top sellers matter).
// Simulation is not run; interest[x] marks counted items, and a nil slice
// counts every item.
func AttackSubsetCtx(ctx context.Context, bf *BeliefFunction, db *Database, interest []bool) (rep AttackReport, err error) {
	defer recoverToError("AttackSubsetCtx", &err)
	// The facade keeps its []bool signature; the kernels take packed words.
	// A nil interest slice means "count every item", the kernels' zero Set.
	var marked bitset.Set
	if interest != nil {
		marked = bitset.FromBools(interest)
	}
	_, rep, err = floorEstimate(ctx, bf, db.Table(), marked)
	return rep, err
}

// CrackDistributionCtx returns the exact distribution P(X = k) of the number
// of cracks under the given belief function, by enumerating the consistent
// crack mappings — feasible for small domains only (the direct method of
// Section 4.1 is #P-complete). The enumeration is exponential and has no
// cheaper substitute, so there is no cascade here: when the budget runs out
// the error is returned (budget.IsBudgetError reports true) and the caller
// decides what to do.
func CrackDistributionCtx(ctx context.Context, bf *BeliefFunction, db *Database) (dist []float64, err error) {
	defer recoverToError("CrackDistributionCtx", &err)
	g, err := ConsistencyGraph(bf, db)
	if err != nil {
		return nil, err
	}
	return core.CrackDistributionCtx(ctx, g.ToExplicit())
}

// ExpectedCracksIgnorant is Lemma 1: exactly 1 for any domain size.
func ExpectedCracksIgnorant(n int) float64 { return core.ExpectedCracksIgnorant(n) }

// ExpectedCracksExactKnowledge is Lemma 3: the number of distinct observed
// frequencies of the database.
func ExpectedCracksExactKnowledge(db *Database) float64 {
	return core.ExpectedCracksPointValued(dataset.GroupItems(db.Table()))
}

// MineFrequentItemsets mines all itemsets with at least the given fractional
// support, using FP-Growth.
func MineFrequentItemsets(db *Database, minSupportFraction float64) (fis []FrequentItemset, err error) {
	defer recoverToError("MineFrequentItemsets", &err)
	abs, err := fim.AbsoluteSupport(db, minSupportFraction)
	if err != nil {
		return nil, err
	}
	return fim.FPGrowth(db, abs)
}
