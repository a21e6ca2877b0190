package core

import (
	"context"
	"fmt"
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
// subsets but needs only n permanent-style DPs instead of Σ_k (n choose k).
// Counting permanents is #P-complete, so the graph must satisfy
// n ≤ bipartite.MaxExactN. The context's deadline and operation limit bound
// the n+1 Gray-code Ryser passes, so the #P-complete direct method can be
// attempted speculatively and abandoned (budget.ErrBudgetExceeded) by a
// degradation cascade.
//
// Only the diagonal of the edge-inclusion matrix enters the sum, so the
// permanents come from bipartite.DiagonalMatchingCountsCtx — O(n) memory,
// reaching n = MaxExactN — rather than the 2^n-table edge-inclusion DP,
// which stops at the tighter MaxExactTableN.
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

// CrackDistributionDirect evaluates the paper's Section 4.1 formula
// literally:
//
//	P(X = k) = Σ_{S ∈ I^k} perm(A_{G(S)}) / perm(A_G)
//
// where G(S) removes, for each x in S, the vertices x and x′ (they are
// matched as cracks) and, for every remaining y, the diagonal edge (y′, y)
// (no further cracks allowed). The subset sum makes it exponentially more
// expensive than enumeration; it exists to validate the formula itself.
func CrackDistributionDirect(ctx context.Context, e *bipartite.Explicit, k int) (float64, error) {
	if k < 0 || k > e.N {
		return 0, fmt.Errorf("core: crack count %d outside [0,%d]", k, e.N)
	}
	total, err := e.CountPerfectMatchingsCtx(ctx)
	if err != nil {
		return 0, err
	}
	if total.Sign() == 0 {
		return 0, bipartite.ErrInfeasible
	}
	sum := new(big.Int)
	subset := make([]int, k)
	var rec func(start, depth int) error
	rec = func(start, depth int) error {
		if depth == k {
			c, err := restrictedCount(ctx, e, subset)
			if err != nil {
				return err
			}
			sum.Add(sum, c)
			return nil
		}
		for x := start; x < e.N; x++ {
			subset[depth] = x
			if err := rec(x+1, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, 0); err != nil {
		return 0, err
	}
	q := new(big.Float).Quo(new(big.Float).SetInt(sum), new(big.Float).SetInt(total))
	out, _ := q.Float64()
	return out, nil
}

// restrictedCount counts the perfect matchings of G(S): vertices of S matched
// diagonally and removed, all remaining diagonal edges deleted.
func restrictedCount(ctx context.Context, e *bipartite.Explicit, S []int) (*big.Int, error) {
	inS := make([]bool, e.N)
	for _, x := range S {
		if !e.HasEdge(x, x) {
			// x cannot be cracked at all; no matching has crack set ⊇ {x}.
			return new(big.Int), nil
		}
		inS[x] = true
	}
	// Relabel the remaining vertices densely.
	relabel := make([]int, e.N)
	m := 0
	for x := 0; x < e.N; x++ {
		if !inS[x] {
			relabel[x] = m
			m++
		}
	}
	if m == 0 {
		return big.NewInt(1), nil
	}
	adj := make([][]int, m)
	//lint:allow loopbudget linear minor construction feeding CountPerfectMatchingsCtx, which budgets the exponential part
	for w := 0; w < e.N; w++ {
		if inS[w] {
			continue
		}
		for _, x := range e.Adj[w] {
			if inS[x] || x == w { // drop removed vertices and diagonal edges
				continue
			}
			adj[relabel[w]] = append(adj[relabel[w]], relabel[x])
		}
	}
	sub, err := bipartite.NewExplicit(m, adj)
	if err != nil {
		return nil, err
	}
	return sub.CountPerfectMatchingsCtx(ctx)
}
