package core

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/dataset"
)

// OEOptions configures the O-estimate computation.
type OEOptions struct {
	// Propagate applies the degree-1 propagation of Figure 7 before reading
	// outdegrees, as Section 5.2 recommends. Propagation can prove the graph
	// infeasible for (very) non-compliant belief functions; the estimate then
	// returns bipartite.ErrInfeasible.
	Propagate bool
	// Mask, when set (non-zero), restricts the summation to its members. The
	// Assess-Risk recipe uses it to evaluate α-compliant belief functions
	// without perturbing intervals: excluded items are treated as
	// non-compliant and contribute nothing (Section 5.3).
	Mask bitset.Set
	// Interest, when set (non-zero), counts only its members in the estimate
	// — the owner's "items of interest" of Lemmas 2 and 4 (e.g. only the
	// frequent items, or the high-margin products). Unlike Mask, uninterest-
	// ing items still participate in the graph and in propagation; they are
	// merely not counted.
	Interest bitset.Set
}

// OEResult carries the O-estimate and the evidence behind it.
type OEResult struct {
	Value     float64    // OE(β, D) = Σ 1/O_x over crackable items
	Outdeg    []int      // per-item outdegree used in the sum (post-propagation when enabled)
	Crackable bitset.Set // items that contributed (compliant, unmasked, still reachable)
	Forced    int        // propagation-forced edges (0 without propagation)
	Rounds    int        // propagation rounds (0 without propagation)
}

// Fraction returns the O-estimate as a fraction of the domain size, the unit
// of Figure 11's y-axis.
func (r *OEResult) Fraction() float64 {
	if len(r.Outdeg) == 0 {
		return 0
	}
	return r.Value / float64(len(r.Outdeg))
}

// checkMask validates an optional bitset option against the domain size.
func checkMask(name string, m bitset.Set, n int) error {
	if !m.IsZero() && m.Len() != n {
		return fmt.Errorf("core: %s covers %d items, want %d", name, m.Len(), n)
	}
	return nil
}

// OEstimateCtx computes the O-estimate heuristic of Figure 5:
//
//	OE(β, D) = Σ_{x ∈ I_C} 1 / O_x
//
// where O_x is the outdegree of item x in the consistency graph and I_C the
// set of items on which β is compliant (all of I for compliant functions).
// Non-compliant items cannot be cracked by any consistent mapping and
// contribute zero (Section 5.3). The estimate runs in O(n log n) over
// frequency groups and essentially always completes — it is the floor of the
// degradation cascade — but the budget checks let a canceled context abort
// even this path promptly on very large domains.
func OEstimateCtx(ctx context.Context, bf *belief.Function, ft *dataset.FrequencyTable, opts OEOptions) (*OEResult, error) {
	if err := checkMask("mask", opts.Mask, ft.NItems); err != nil {
		return nil, err
	}
	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		return nil, err
	}
	return OEstimateGraphCtx(ctx, g, opts)
}

// OEstimateGraphCtx computes the O-estimate directly from a prebuilt graph.
// This is the "second level" generalization the paper highlights in
// Section 8.1: once a bipartite consistency graph is set up — by belief
// functions over frequencies or by any other kind of partial information —
// the estimate applies unchanged. It is GraphTermsCtx and a masked scan of
// the terms back to back, under one budget: propagation's own charges plus
// n when propagating, then one operation per item scanned, one 64-item word
// at a time.
//
// The scan is a word-parallel kernel (DESIGN.md §16): the crackable words
// are ANDed with the option masks and only surviving bits are visited — in
// ascending item order via TrailingZeros64, so the float accumulation
// order, and therefore every bit of Value, matches the historical
// item-at-a-time loop (pinned by TestOEstimateBitsetMatchesReference).
func OEstimateGraphCtx(ctx context.Context, g *bipartite.Graph, opts OEOptions) (*OEResult, error) {
	n := g.Items()
	if err := checkMask("mask", opts.Mask, n); err != nil {
		return nil, err
	}
	if err := checkMask("interest mask", opts.Interest, n); err != nil {
		return nil, err
	}
	bud := budget.New(ctx, budget.Config{CheckEvery: 4096})
	if err := bud.Check(); err != nil {
		return nil, err
	}
	t, err := graphTerms(ctx, bud, g, opts.Propagate)
	if err != nil {
		return nil, err
	}
	res, err := t.estimate(bud, opts)
	if err != nil {
		return nil, fmt.Errorf("core: O-estimate: %w", err)
	}
	return res, nil
}

// OETerms is the once-per-graph half of the O-estimate: which items can
// contribute and what each one adds. Degree-1 propagation, when asked for,
// runs here, so any number of masks can be summed against one propagation —
// α-compliance only changes which items count, never the graph or its
// propagation (Section 5.3). An OETerms is read-only once built; its slices
// may be shared with the graph.
type OETerms struct {
	// Crackable holds the items that contribute when nothing is masked: the
	// compliant items, or after propagation the crack-forced items plus the
	// compliant items propagation left open.
	Crackable bitset.Set
	// Terms is each item's contribution: 1 for a crack-forced item (cracked
	// in every consistent mapping), 1/O_x for an open compliant item, 0
	// elsewhere.
	Terms  []float64
	Outdeg []int // per-item outdegree (post-propagation when enabled)
	Forced int   // propagation-forced edges (0 without propagation)
	Rounds int   // propagation rounds (0 without propagation)
}

// GraphTermsCtx computes the O-estimate terms of a graph, propagating first
// when propagate is set. Propagation charges its own budget plus one
// operation per item; without it the terms are the graph's compliance set
// and reciprocal outdegrees.
func GraphTermsCtx(ctx context.Context, g *bipartite.Graph, propagate bool) (*OETerms, error) {
	bud := budget.New(ctx, budget.Config{CheckEvery: 4096})
	if err := bud.Check(); err != nil {
		return nil, err
	}
	return graphTerms(ctx, bud, g, propagate)
}

func graphTerms(ctx context.Context, bud *budget.Budget, g *bipartite.Graph, propagate bool) (*OETerms, error) {
	n := g.Items()
	comp := g.ComplianceSet()
	if !propagate {
		inv := g.OutdegreeReciprocals()
		terms := make([]float64, n)
		comp.ForEach(func(x int) { terms[x] = inv[x] })
		return &OETerms{Crackable: comp, Terms: terms, Outdeg: g.Outdegrees()}, nil
	}
	p, err := g.PropagateCtx(ctx)
	if err != nil {
		return nil, err
	}
	if err := bud.Charge(int64(n)); err != nil { // propagation visits every item at least once
		return nil, fmt.Errorf("core: O-estimate propagation: %w", err)
	}
	return propagatedTerms(comp, p), nil
}

// propagatedTerms classifies the items after propagation. The forced pairs
// are packed into forced-item and consumed-anonymized-item words; then a
// crack-forced item (forced onto its own anonymized twin) adds 1, a
// compliant item neither forced nor robbed of its twin stays open and adds
// 1/O_x with its post-propagation outdegree, and every other item adds
// nothing — the four-way switch of the historical per-item loop.
func propagatedTerms(comp bitset.Set, p *bipartite.Propagation) *OETerms {
	n := comp.Len()
	t := &OETerms{
		Crackable: bitset.New(n),
		Terms:     make([]float64, n),
		Outdeg:    p.Outdeg,
		Forced:    len(p.Forced),
		Rounds:    p.Rounds,
	}
	forced, consumed := bitset.New(n), bitset.New(n)
	for _, fp := range p.Forced {
		forced.Add(fp.Item)
		consumed.Add(fp.Anon)
		if fp.Anon == fp.Item {
			t.Crackable.Add(fp.Item)
			t.Terms[fp.Item] = 1
		}
	}
	cw, fw, uw := t.Crackable.Words(), forced.Words(), consumed.Words()
	for k, w := range comp.Words() {
		cw[k] |= w &^ (fw[k] | uw[k])
	}
	t.Crackable.ForEach(func(x int) {
		if !forced.Contains(x) { // open, not crack-forced
			t.Terms[x] = 1 / float64(p.Outdeg[x])
		}
	})
	return t
}

// SumCtx is the per-mask half of the O-estimate: the terms summed over
// Crackable ∩ mask in ascending item order, one operation charged per item.
// A zero mask counts every crackable item. It only reads t, so concurrent
// sums over one OETerms are safe; the α search runs one per (level, run).
func (t *OETerms) SumCtx(ctx context.Context, mask bitset.Set) (float64, error) {
	n := len(t.Terms)
	if err := checkMask("mask", mask, n); err != nil {
		return 0, err
	}
	bud := budget.New(ctx, budget.Config{CheckEvery: 4096})
	if err := bud.Check(); err != nil {
		return 0, err
	}
	v, err := oeScanWords(bud, n, t.Crackable.Words(), mask.Words(), nil, nil, t.Terms)
	if err != nil {
		return 0, fmt.Errorf("core: O-estimate: %w", err)
	}
	return v, nil
}

// estimate sums the terms under the option masks into a full result; the
// caller has validated the masks against the domain.
func (t *OETerms) estimate(bud *budget.Budget, opts OEOptions) (*OEResult, error) {
	n := len(t.Terms)
	res := &OEResult{Outdeg: t.Outdeg, Crackable: bitset.New(n), Forced: t.Forced, Rounds: t.Rounds}
	v, err := oeScanWords(bud, n, t.Crackable.Words(), opts.Mask.Words(), opts.Interest.Words(),
		res.Crackable.Words(), t.Terms)
	if err != nil {
		return nil, err
	}
	res.Value = v
	return res, nil
}

// oeScanWords is the one O-estimate scan kernel: for every 64-item word,
// crackable & mask is the word's crackable output, and the terms of its
// counted (crackable & mask & interest) bits are summed in ascending item
// order. nil maskW or intW means no restriction, and a nil crack skips the
// output. crackable must have its tail bits clear, which bounds every
// derived word by the domain. One operation per item is charged, 64 at a
// time, keeping op totals comparable to the per-item loop.
func oeScanWords(bud *budget.Budget, n int, crackable, maskW, intW, crack []uint64, terms []float64) (float64, error) {
	value := 0.0
	for k, w := range crackable {
		width := int64(n - k<<6)
		if width > 64 {
			width = 64
		}
		if err := bud.Charge(width); err != nil {
			return 0, err
		}
		if maskW != nil {
			w &= maskW[k]
		}
		if crack != nil {
			crack[k] = w
		}
		if intW != nil {
			w &= intW[k]
		}
		base := k << 6
		for w != 0 {
			value += terms[base+bits.TrailingZeros64(w)]
			w &= w - 1
		}
	}
	return value, nil
}
