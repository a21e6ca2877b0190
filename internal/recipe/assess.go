// Package recipe implements the decision procedures the paper hands the data
// owner: Algorithm Assess-Risk (Section 6, Figure 8), which decides whether
// anonymized data is safe to disclose under a crack tolerance τ, and
// Similarity-by-Sampling (Section 7.4, Figure 13), which calibrates how much
// compliancy a hacker could plausibly reach from "similar data".
package recipe

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// Options configures Assess-Risk.
type Options struct {
	// Tolerance is τ: the fraction of items the owner can tolerate being
	// cracked. Required, in (0, 1).
	Tolerance float64
	// Runs is the number of random compliant subsets averaged per α level
	// (Section 6.2; the paper uses 5). Default 5.
	Runs int
	// Propagate applies degree-1 propagation inside the O-estimates.
	Propagate bool
	// AlphaComfort is the α_max level at or above which the final verdict is
	// "disclose": the owner judges it unlikely that a hacker guesses the
	// frequency intervals of that fraction of the domain (the paper discusses
	// 0.8 as comfortable and 0.2 as alarming). Default 0.5.
	AlphaComfort float64
	// Rng drives the random compliant subsets. Required.
	Rng *rand.Rand
}

// alphaPrecision is the width at which the recipe's binary search on α
// stops.
const alphaPrecision = 1.0 / 64

func (o Options) withDefaults() (Options, error) {
	if !(o.Tolerance > 0 && o.Tolerance < 1) {
		return o, fmt.Errorf("recipe: tolerance %v outside (0,1)", o.Tolerance)
	}
	if o.Rng == nil {
		return o, fmt.Errorf("recipe: Options.Rng is required")
	}
	if o.Runs <= 0 {
		o.Runs = 5
	}
	if o.AlphaComfort <= 0 {
		o.AlphaComfort = 0.5
	}
	return o, nil
}

// Stage identifies which step of Figure 8 settled the decision.
type Stage int

const (
	// StagePointValued: the Lemma 3 worst case already fits the tolerance
	// (steps 1-2).
	StagePointValued Stage = iota + 1
	// StageCompliantInterval: the δ_med compliant-interval O-estimate fits
	// the tolerance (steps 3-7).
	StageCompliantInterval
	// StageAlphaSearch: the binary search on α produced α_max and the
	// verdict compares it against the comfort level (steps 8-10).
	StageAlphaSearch
)

func (s Stage) String() string {
	switch s {
	case StagePointValued:
		return "point-valued worst case within tolerance"
	case StageCompliantInterval:
		return "compliant-interval O-estimate within tolerance"
	case StageAlphaSearch:
		return "alpha binary search"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Result reports the full evidence trail of Assess-Risk.
type Result struct {
	Disclose bool  // the recipe's verdict
	Stage    Stage // which step decided

	Items     int     // n
	Groups    int     // g, the Lemma 3 expected cracks
	DeltaMed  float64 // δ_med, the interval half-width used
	OEFull    float64 // O-estimate at full compliance (step 6)
	AlphaMax  float64 // largest α within tolerance (1 when earlier stages decide)
	Tolerance float64 // τ echoed back

	// Degraded marks that the work budget ran out mid-way through the α
	// binary search. AlphaMax is then the largest α *proven* within
	// tolerance so far — a conservative lower bound — and the verdict is
	// taken against it, erring toward "withhold". DegradedReason records
	// which budget was exhausted.
	Degraded       bool
	DegradedReason string

	// Provenance of the parallel engine: how many workers the sweep was
	// allowed (parallel.Workers of the assessment context), and the wall and
	// cumulative process CPU time the assessment took. Wall shrinks with
	// workers on multi-core hardware while CPU stays roughly flat; CPU is 0
	// on platforms without rusage.
	Workers int
	Wall    time.Duration
	CPU     time.Duration
}

// FractionPointValued returns g/n, the worst-case crack fraction.
func (r *Result) FractionPointValued() float64 { return float64(r.Groups) / float64(r.Items) }

// FractionOEFull returns OEFull/n.
func (r *Result) FractionOEFull() float64 { return r.OEFull / float64(r.Items) }

// AssessRiskCtx executes Algorithm Assess-Risk (Figure 8) on the frequency
// table of the database under assessment. The cheap early stages (Lemma 3
// worst case, one O-estimate) run to completion or error; the α binary
// search — the only stage whose cost is a multiple of the domain size —
// degrades gracefully: when the budget runs out mid-search the result
// carries the largest α proven within tolerance so far, Degraded is set,
// and the verdict is taken conservatively against that lower bound.
func AssessRiskCtx(ctx context.Context, ft *dataset.FrequencyTable, opts Options) (*Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	n := ft.NItems
	gr := dataset.GroupItems(ft)
	crackBudget := opts.Tolerance * float64(n)
	res := &Result{
		Items:     n,
		Groups:    gr.NumGroups(),
		Tolerance: opts.Tolerance,
		AlphaMax:  1,
		Workers:   parallel.Workers(ctx),
	}
	startWall, startCPU := time.Now(), parallel.CPUTime() //lint:allow detrand timing provenance only; Wall/CPU are excluded from determinism comparisons
	defer func() {
		res.Wall = time.Since(startWall) //lint:allow detrand timing provenance only; Wall/CPU are excluded from determinism comparisons
		if startCPU > 0 {
			res.CPU = parallel.CPUTime() - startCPU
		}
	}()

	// Steps 1-2: compliant point-valued worst case (Lemma 3).
	if core.ExpectedCracksPointValued(gr) <= crackBudget {
		res.Disclose = true
		res.Stage = StagePointValued
		return res, nil
	}

	// Steps 3-6: compliant interval belief function with width δ_med. Step 6
	// builds the δ_med consistency graph and its O-estimate terms once,
	// propagating when asked, and the step-8 α search scans those terms
	// under each probe's mask. α-compliance only changes which items count,
	// so one propagation — the dominant cost of a propagated O-estimate —
	// serves every probe bit-identically.
	res.DeltaMed = gr.MedianGap()
	g, err := bipartite.Build(belief.UniformWidth(ft.Frequencies(), res.DeltaMed), gr)
	if err != nil {
		return nil, err
	}
	terms, err := core.GraphTermsCtx(ctx, g, opts.Propagate)
	if err != nil {
		return nil, err
	}
	if res.OEFull, err = terms.SumCtx(ctx, bitset.Set{}); err != nil {
		return nil, err
	}

	// Step 7.
	if res.OEFull <= crackBudget {
		res.Disclose = true
		res.Stage = StageCompliantInterval
		return res, nil
	}

	// Steps 8-9: binary search for α_max. Each run r holds a fixed random
	// item order; the compliant set at level α is the order's first
	// int(αn + 0.5) items (αn rounded to nearest, halves up), so the sets
	// are nested across α exactly as Lemma 10's monotonicity requires
	// (Section 6.2).
	s := &AlphaSearch{n: n, orders: uniformOrders(n, opts.Runs, opts.Rng), terms: fixedTerms(terms)}
	res.Stage = StageAlphaSearch
	res.AlphaMax, err = s.MaxAlphaWithinCtx(ctx, crackBudget, alphaPrecision)
	if budget.Degradable(err) {
		res.Degraded = true
		res.DegradedReason = err.Error()
	} else if err != nil {
		return nil, err
	}
	res.Disclose = res.AlphaMax >= opts.AlphaComfort
	return res, nil
}

// AlphaSearch evaluates averaged α-compliant O-estimates over nested
// compliant subsets, supporting both the recipe's binary search and the α
// sweep of Figure 11.
type AlphaSearch struct {
	n      int
	orders [][]int // one item order per run; level α keeps the first int(αn + 0.5)
	// terms yields the O-estimate terms every probe scans: the terms an
	// assessment's step 6 already computed, or core.GraphTermsCtx run afresh
	// on the δ_med graph, once per MaxAlphaWithinCtx, CurveCtx or OEAtCtx
	// call under that call's context.
	terms func(context.Context) (*core.OETerms, error)
}

// fixedTerms is the terms source of a search that reuses terms computed
// before it.
func fixedTerms(t *core.OETerms) func(context.Context) (*core.OETerms, error) {
	return func(context.Context) (*core.OETerms, error) { return t, nil }
}

// freshTerms is the terms source of a search that computes its terms from g
// on every call.
func freshTerms(g *bipartite.Graph, propagate bool) func(context.Context) (*core.OETerms, error) {
	return func(ctx context.Context) (*core.OETerms, error) { return core.GraphTermsCtx(ctx, g, propagate) }
}

// NewAlphaSearch prepares `runs` independent uniformly random item orders
// over the domain of ft, using the compliant belief function bf. This is the
// paper's Section 6.2 subset model: which items the hacker guesses right is
// uniform.
func NewAlphaSearch(ft *dataset.FrequencyTable, bf *belief.Function, runs int, propagate bool, rng *rand.Rand) (*AlphaSearch, error) {
	return newAlphaSearch(ft, bf, runs, propagate, false, rng)
}

// NewAlphaSearchBiased is the ablation variant where the hacker's wrong
// guesses land preferentially on the *distinctive* items — those with the
// highest crack contribution 1/O_x — so the O-estimate decays super-linearly
// as α falls. The paper's Figure 11 curves for PUMSB and ACCIDENTS are
// super-linear, which uniform subsets cannot produce (OE is then linear in α
// in expectation); this variant quantifies how much that modelling choice
// matters (see EXPERIMENTS.md).
func NewAlphaSearchBiased(ft *dataset.FrequencyTable, bf *belief.Function, runs int, propagate bool, rng *rand.Rand) (*AlphaSearch, error) {
	return newAlphaSearch(ft, bf, runs, propagate, true, rng)
}

func newAlphaSearch(ft *dataset.FrequencyTable, bf *belief.Function, runs int, propagate, biased bool, rng *rand.Rand) (*AlphaSearch, error) {
	if bf.Items() != ft.NItems {
		return nil, fmt.Errorf("recipe: belief domain %d != table domain %d", bf.Items(), ft.NItems)
	}
	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		return nil, err
	}
	if runs <= 0 {
		runs = 5
	}
	n := ft.NItems
	s := &AlphaSearch{n: n, terms: freshTerms(g, propagate)}
	if !biased {
		s.orders = uniformOrders(n, runs, rng)
		return s, nil
	}
	// x's term of the plain O-estimate: 1/O_x where β is compliant.
	inv := g.OutdegreeReciprocals()
	contrib := make([]float64, n)
	g.ComplianceSet().ForEach(func(x int) {
		contrib[x] = inv[x]
	})
	for r := 0; r < runs; r++ {
		// Exponential-race ordering: item x gets priority Exp(1)·contrib(x);
		// ascending sort keeps low contributors compliant longest, with
		// randomness across runs.
		type pr struct {
			x int
			p float64
		}
		ps := make([]pr, n)
		for x := 0; x < n; x++ {
			ps[x] = pr{x: x, p: rng.ExpFloat64() * (contrib[x] + 1e-9)}
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].p < ps[j].p })
		order := make([]int, n)
		for i, p := range ps {
			order[i] = p.x
		}
		s.orders = append(s.orders, order)
	}
	return s, nil
}

// uniformOrders draws the uniform model's item orders: one permutation of
// the n items per run.
func uniformOrders(n, runs int, rng *rand.Rand) [][]int {
	orders := make([][]int, runs)
	for r := range orders {
		orders[r] = rng.Perm(n)
	}
	return orders
}

// OEAtCtx returns the mean O-estimate across runs at compliancy level α: in
// each run only the first int(αn + 0.5) items of the run's order — αn
// rounded to nearest, halves up — count as compliant. Each of the runs'
// O-estimates checks the context's deadline and operation limit. The runs
// evaluate on the parallel worker pool, each worker reusing one lazily-built
// mask buffer across its items; the per-run values are reduced in run order,
// so the mean is bit-identical at any worker count.
func (s *AlphaSearch) OEAtCtx(ctx context.Context, alpha float64) (float64, error) {
	if !(alpha >= 0 && alpha <= 1) {
		return 0, fmt.Errorf("recipe: alpha %v outside [0,1]", alpha)
	}
	t, err := s.terms(ctx)
	if err != nil {
		return 0, err
	}
	return s.oeAt(ctx, t, alpha)
}

// oeAt is OEAtCtx on terms already in hand.
func (s *AlphaSearch) oeAt(ctx context.Context, t *core.OETerms, alpha float64) (float64, error) {
	runs := len(s.orders)
	workers := parallel.PoolWorkers(ctx, 0, runs)
	masks := make([]bitset.Set, workers)
	vals := make([]float64, runs)
	err := parallel.ForEachWorker(ctx, workers, runs, func(w, r int) error {
		if masks[w].IsZero() {
			masks[w] = bitset.New(s.n)
		}
		v, err := s.oeOne(ctx, t, alpha, s.orders[r], masks[w])
		if err != nil {
			return err
		}
		vals[r] = v
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return total / float64(len(s.orders)), nil
}

// oeOne evaluates the O-estimate of a single run's compliant subset at level
// alpha: the terms summed under the subset's mask. It is the independent work
// item of the package's parallel sweeps: pure in (alpha, order) given the
// read-only terms. The caller supplies mask — a zeroed n-length scratch
// buffer reused across the items of one worker — and gets it back zeroed,
// whether or not the estimate errored. Which worker's buffer arrives here can
// never change the value: the mask is fully determined by (alpha, order)
// before the sum reads it.
func (s *AlphaSearch) oeOne(ctx context.Context, t *core.OETerms, alpha float64, order []int, mask bitset.Set) (float64, error) {
	k := int(alpha*float64(s.n) + 0.5)
	for _, x := range order[:k] {
		mask.Add(x)
	}
	v, err := t.SumCtx(ctx, mask)
	for _, x := range order[:k] {
		mask.Remove(x)
	}
	return v, err
}

// MaxAlphaWithinCtx binary-searches the largest α whose averaged O-estimate
// is within the given crack budget, to the given precision, which must be
// positive. The search is valid because the nested compliant sets make
// OEAtCtx monotone in α (Lemma 10). The whole search shares one operation
// budget (runs × n charged per α evaluation), so a budget.WithMaxOps limit
// or a context deadline can stop it between iterations. On exhaustion it
// returns the best PROVEN α so far — the lower bound of the bracketing
// invariant — together with the budget error, so callers can keep the
// conservative partial answer while recording the degradation.
func (s *AlphaSearch) MaxAlphaWithinCtx(ctx context.Context, crackBudget, precision float64) (float64, error) {
	if !(precision > 0) {
		return 0, fmt.Errorf("recipe: alpha precision %v is not positive", precision)
	}
	bud := budget.New(ctx, budget.Config{CheckEvery: 1})
	evalCost := int64(len(s.orders)) * int64(s.n)
	if err := bud.Check(); err != nil {
		return 0, err
	}
	t, err := s.terms(ctx)
	if err != nil {
		return 0, err
	}
	hiVal, err := s.oeAt(ctx, t, 1)
	if err != nil {
		return 0, err
	}
	if hiVal <= crackBudget {
		return 1, nil
	}
	lo, hi := 0.0, 1.0 // invariant: OEAt(lo) <= crackBudget < OEAt(hi)
	if err := bud.Charge(evalCost); err != nil {
		return lo, fmt.Errorf("recipe: alpha search: %w", err)
	}
	for hi-lo > precision {
		mid := (lo + hi) / 2
		if mid <= lo || mid >= hi {
			break // the bracket is as narrow as float64 allows
		}
		v, err := s.oeAt(ctx, t, mid)
		if err != nil {
			if budget.Degradable(err) {
				return lo, fmt.Errorf("recipe: alpha search: %w", err)
			}
			return 0, err
		}
		if v <= crackBudget {
			lo = mid
		} else {
			hi = mid
		}
		if err := bud.Charge(evalCost); err != nil {
			return lo, fmt.Errorf("recipe: alpha search: %w", err)
		}
	}
	return lo, nil
}

// CurveCtx evaluates OEAtCtx on each α in alphas, returning O-estimates as
// fractions of the domain — one series of Figure 11 — on the parallel worker
// pool. The fan-out is the flattened α × run grid — every (point, subset)
// O-estimate is an independent work item — so the pool stays saturated even
// when the curve has more workers than α points. Each worker reuses one
// lazily-built mask buffer across its grid items. Per-point means reduce in
// run order and the output in α order, keeping the curve bit-identical at
// any worker count.
func (s *AlphaSearch) CurveCtx(ctx context.Context, alphas []float64) ([]float64, error) {
	for _, a := range alphas {
		if !(a >= 0 && a <= 1) {
			return nil, fmt.Errorf("recipe: alpha %v outside [0,1]", a)
		}
	}
	t, err := s.terms(ctx)
	if err != nil {
		return nil, err
	}
	runs := len(s.orders)
	grid := len(alphas) * runs
	workers := parallel.PoolWorkers(ctx, 0, grid)
	masks := make([]bitset.Set, workers)
	vals := make([]float64, grid)
	err = parallel.ForEachWorker(ctx, workers, grid, func(w, k int) error {
		if masks[w].IsZero() {
			masks[w] = bitset.New(s.n)
		}
		v, err := s.oeOne(ctx, t, alphas[k/runs], s.orders[k%runs], masks[w])
		if err != nil {
			return err
		}
		vals[k] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(alphas))
	n := float64(s.n)
	for i := range alphas {
		total := 0.0
		for r := 0; r < runs; r++ {
			total += vals[i*runs+r]
		}
		out[i] = total / float64(runs) / n
	}
	return out, nil
}
