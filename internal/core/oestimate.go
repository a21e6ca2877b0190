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
// the estimate applies unchanged. One operation is charged per item scanned,
// one 64-item word at a time.
//
// Both paths run as word-parallel kernels (DESIGN.md §16): the graph's
// packed compliance words are ANDed with the option masks, the crackable
// words fall out of the same AND, and only surviving bits are visited — in
// ascending item order via TrailingZeros64, so the float accumulation order,
// and therefore every bit of Value, matches the historical item-at-a-time
// loop (pinned by TestOEstimateBitsetMatchesReference).
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
	var maskW, intW []uint64
	if !opts.Mask.IsZero() {
		maskW = opts.Mask.Words()
	}
	if !opts.Interest.IsZero() {
		intW = opts.Interest.Words()
	}
	res := &OEResult{Crackable: bitset.New(n)}

	if !opts.Propagate {
		res.Outdeg = g.Outdegrees()
		value, err := oeScanWords(bud, n, g.ComplianceSet().Words(), maskW, intW,
			res.Crackable.Words(), g.OutdegreeReciprocals())
		if err != nil {
			return nil, fmt.Errorf("core: O-estimate: %w", err)
		}
		res.Value = value
		return res, nil
	}

	p, err := g.PropagateCtx(ctx)
	if err != nil {
		return nil, err
	}
	if err := bud.Charge(int64(n)); err != nil { // propagation visits every item at least once
		return nil, fmt.Errorf("core: O-estimate propagation: %w", err)
	}
	res.Outdeg = p.Outdeg
	res.Forced = len(p.Forced)
	res.Rounds = p.Rounds
	value, err := oePropagatedWords(bud, n, g.ComplianceSet().Words(), maskW, intW,
		res.Crackable.Words(), p.Outdeg, p.Forced)
	if err != nil {
		return nil, fmt.Errorf("core: O-estimate: %w", err)
	}
	res.Value = value
	return res, nil
}

// oeScanWords is the plain (non-propagated) O-estimate kernel: for every
// 64-item word, crackable = compliant & mask, and the reciprocal outdegrees
// of the counted (crackable & interest) bits are summed in ascending item
// order. comp must have its tail bits clear, which bounds every derived word
// by the domain; crack is overwritten. One operation per item is charged,
// 64 at a time, keeping op totals comparable to the per-item loop.
func oeScanWords(bud *budget.Budget, n int, comp, maskW, intW, crack []uint64, inv []float64) (float64, error) {
	value := 0.0
	for k, w := range comp {
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
		crack[k] = w
		if intW != nil {
			w &= intW[k]
		}
		base := k << 6
		for w != 0 {
			value += inv[base+bits.TrailingZeros64(w)]
			w &= w - 1
		}
	}
	return value, nil
}

// oePropagatedWords is the post-propagation O-estimate kernel. The forced
// pairs are first packed into three word vectors — forced items, consumed
// anonymized items, and crack-forced items (fp.Anon == fp.Item, a subset of
// the forced items) — and then one pass classifies 64 items per word:
//
//	addOne = crackForced & mask            // cracked in every mapping: +1
//	addInv = comp &^ (forced|consumed) & mask  // still open: +1/O_x
//
// exactly the four-way switch of the historical per-item loop. Both kinds
// are crackable; only interest-counted bits contribute to the value, visited
// in ascending item order so the mixed +1/+1/O_x accumulation keeps its
// historical float ordering.
func oePropagatedWords(bud *budget.Budget, n int, comp, maskW, intW, crack []uint64, outdeg []int, forcedPairs []bipartite.ForcedPair) (float64, error) {
	nw := bitset.WordsFor(n)
	forced := make([]uint64, nw)
	consumed := make([]uint64, nw)
	crackF := make([]uint64, nw)
	for _, fp := range forcedPairs {
		forced[fp.Item>>6] |= 1 << uint(fp.Item&63)
		consumed[fp.Anon>>6] |= 1 << uint(fp.Anon&63)
		if fp.Anon == fp.Item {
			crackF[fp.Item>>6] |= 1 << uint(fp.Item&63)
		}
	}
	value := 0.0
	for k := 0; k < nw; k++ {
		width := int64(n - k<<6)
		if width > 64 {
			width = 64
		}
		if err := bud.Charge(width); err != nil {
			return 0, err
		}
		m := ^uint64(0)
		if maskW != nil {
			m = maskW[k]
		}
		addOne := crackF[k] & m
		addInv := comp[k] &^ (forced[k] | consumed[k]) & m
		crack[k] = addOne | addInv
		if intW != nil {
			addOne &= intW[k]
			addInv &= intW[k]
		}
		base := k << 6
		for u := addOne | addInv; u != 0; u &= u - 1 {
			low := u & (^u + 1)
			if addOne&low != 0 {
				value++ // cracked in every consistent mapping
			} else {
				value += 1 / float64(outdeg[base+bits.TrailingZeros64(u)])
			}
		}
	}
	return value, nil
}
