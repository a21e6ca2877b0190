package core

import (
	"context"
	"math/big"

	"repro/internal/bipartite"
)

// ExactExpectedCracksCtx computes the exact expected number of cracks of
// the direct method (Section 4.1), assuming each perfect matching of the
// graph is equally likely:
//
//	E(X) = Σ_x P((x′, x) in a uniform matching)
//	     = Σ_x perm(minor(x′, x)) / perm(A_G).
//
// This is mathematically equal to the paper's Σ_k k·P(X = k) expansion over
// subsets but needs only n+1 permanents instead of Σ_k (n choose k): the
// Gray-code Ryser passes of bipartite.DiagonalMatchingCountsCtx, in O(n)
// memory. Counting permanents is #P-complete, so the graph must satisfy
// n ≤ bipartite.MaxExactN. The context's deadline and operation limit bound
// the n+1 passes, so the #P-complete direct method can be attempted
// speculatively and abandoned (budget.ErrBudgetExceeded) by a degradation
// cascade.
func ExactExpectedCracksCtx(ctx context.Context, e *bipartite.Explicit) (float64, error) {
	total, diag, err := e.DiagonalMatchingCountsCtx(ctx)
	if err != nil {
		return 0, err
	}
	tot := new(big.Float).SetInt(total)
	exp := 0.0
	for x := 0; x < e.N; x++ {
		if diag[x] == nil {
			continue
		}
		q, _ := new(big.Float).Quo(new(big.Float).SetInt(diag[x]), tot).Float64()
		exp += q
	}
	return exp, nil
}

// CrackDistributionCtx returns the exact distribution P(X = k), k = 0..n, of
// the number of cracks in a uniformly random perfect matching, by exhaustive
// enumeration, aborting when the context's deadline or operation limit runs
// out. Exponential in n; intended for worked examples and for validating the
// closed forms.
func CrackDistributionCtx(ctx context.Context, e *bipartite.Explicit) ([]float64, error) {
	hist := make([]int, e.N+1)
	total := 0
	err := e.EnumeratePerfectMatchingsCtx(ctx, 0, func(match []int) {
		cracks := 0
		for w, x := range match {
			if w == x {
				cracks++
			}
		}
		hist[cracks]++
		total++
	})
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, bipartite.ErrInfeasible
	}
	out := make([]float64, e.N+1)
	for k, c := range hist {
		out[k] = float64(c) / float64(total)
	}
	return out, nil
}
