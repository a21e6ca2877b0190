package core

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
)

// OEstimateExplicitCtx computes the O-estimate on an explicit bipartite
// graph — the Section 8.1 generalization: whenever a space of consistent
// crack mappings has been set up as a bipartite graph, by whatever kind of
// partial information, OE = Σ 1/O_x over the items whose own anonymized
// counterpart remains reachable. Options behave as in OEstimateGraphCtx, and
// so does the budget: one operation per edge scanned plus the propagation's
// own charges. The terms and the summation are those of the
// interval-structured path (OETerms, one scan kernel); only the compliance
// words (here the adjacency diagonal) and the outdegrees (the scanned
// indegrees) are sourced differently.
func OEstimateExplicitCtx(ctx context.Context, e *bipartite.Explicit, opts OEOptions) (*OEResult, error) {
	n := e.N
	if err := checkMask("interest mask", opts.Interest, n); err != nil {
		return nil, err
	}
	bud := budget.New(ctx, budget.Config{CheckEvery: 4096})
	if err := bud.Check(); err != nil {
		return nil, err
	}

	indeg := make([]int, n)
	diag := bitset.New(n)
	diagW := diag.Words()
	for w := 0; w < n; w++ {
		if err := bud.Charge(int64(len(e.Adj[w]) + 1)); err != nil {
			return nil, fmt.Errorf("core: explicit O-estimate: %w", err)
		}
		for _, x := range e.Adj[w] {
			indeg[x]++
			if w == x {
				diagW[x>>6] |= 1 << uint(x&63)
			}
		}
	}

	var t *OETerms
	if opts.Propagate {
		p, err := e.PropagateCtx(ctx)
		if err != nil {
			return nil, err
		}
		t = propagatedTerms(diag, p)
	} else {
		// Reciprocals of the freshly scanned indegrees, restricted to the
		// diagonal (diag implies indeg >= 1): the same divisions the per-item
		// loop performed, hoisted out of the scan.
		t = &OETerms{Crackable: diag, Terms: make([]float64, n), Outdeg: indeg}
		for k, w := range diagW {
			if err := bud.Check(); err != nil {
				return nil, fmt.Errorf("core: explicit O-estimate: %w", err)
			}
			base := k << 6
			for ; w != 0; w &= w - 1 {
				x := base + bits.TrailingZeros64(w)
				t.Terms[x] = 1 / float64(indeg[x])
			}
		}
	}
	res, err := t.estimate(bud, opts.Interest)
	if err != nil {
		return nil, fmt.Errorf("core: explicit O-estimate: %w", err)
	}
	return res, nil
}
