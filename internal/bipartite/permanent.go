package bipartite

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/budget"
)

// MaxExactN caps the size of graphs accepted by the exact counting
// routines. Counting perfect matchings is #P-complete (Valiant 1979, [25] in
// the paper); the Gray-code Ryser kernel (ryser.go) costs O(2^n · n) machine
// words and O(n) memory, which is practical to about n = 30.
const MaxExactN = 30

// MaxExactTableN caps the algorithms that materialize the O(2^n) subset-DP
// table of big.Ints (edge-inclusion probabilities, the exact sampler): past
// ~24 the table alone dominates a serving process's memory, even though the
// O(n)-memory Ryser counting continues to n = MaxExactN.
const MaxExactTableN = 24

// CountPerfectMatchingsCtx returns the number of perfect matchings of the
// graph — the permanent of its biadjacency matrix, the direct method of
// Section 4.1 — computed exactly by Ryser's formula with Gray-code subset
// updates (ryser.go). It returns an error when e.N > MaxExactN. The
// context's deadline and any budget.WithMaxOps operation limit are checked
// once per budget window of Gray-code steps, so cancellation aborts the
// exponential computation promptly instead of hanging a serving process.
func (e *Explicit) CountPerfectMatchingsCtx(ctx context.Context) (*big.Int, error) {
	if e.N > MaxExactN {
		return nil, fmt.Errorf("bipartite: exact count needs n <= %d, got %d", MaxExactN, e.N)
	}
	bud := budget.New(ctx, budget.Config{})
	if err := bud.Check(); err != nil {
		return nil, err
	}
	return e.countPerfectMatchingsRyser(bud, nil)
}

// EdgeInclusionProbabilityCtx returns, for each edge (w′, x), the
// probability that a uniformly random perfect matching contains it:
// perm(minor(w, x)) / perm(A). Entries for absent edges are 0. It returns an
// error if the graph is too large or admits no perfect matching.
//
// One subset-DP per left vertex suffices: fixing w′ ↦ x means matching the
// remaining left vertices to the remaining right vertices, so all minors that
// share the removed left vertex come from a single DP table. The n+1 subset
// DPs share one budget, so an operation limit bounds the whole computation,
// not each table. Because each DP materializes a 2^n table, n is capped at
// MaxExactTableN, tighter than the MaxExactN the table-free counting
// routines accept; callers that only need the diagonal should use
// DiagonalMatchingCountsCtx, which runs to MaxExactN.
func (e *Explicit) EdgeInclusionProbabilityCtx(ctx context.Context) ([][]float64, error) {
	if e.N > MaxExactTableN {
		return nil, fmt.Errorf("bipartite: exact count needs n <= %d, got %d", MaxExactTableN, e.N)
	}
	bud := budget.New(ctx, budget.Config{})
	if err := bud.Check(); err != nil {
		return nil, err
	}
	total, err := e.countPerfectMatchings(bud)
	if err != nil {
		return nil, err
	}
	if total.Sign() == 0 {
		return nil, ErrInfeasible
	}
	tot := new(big.Float).SetInt(total)
	out := make([][]float64, e.N)
	for w := 0; w < e.N; w++ {
		out[w] = make([]float64, e.N)
		counts, err := e.matchingCountsFixingLeft(w, bud)
		if err != nil {
			return nil, err
		}
		for _, x := range e.Adj[w] {
			q := new(big.Float).Quo(new(big.Float).SetInt(counts[x]), tot)
			out[w][x], _ = q.Float64()
		}
	}
	return out, nil
}

// countPerfectMatchings is the budgeted subset-DP permanent. The serving
// path counts with the Gray-code Ryser kernel instead; the DP survives as
// the independent oracle the Ryser kernel is pinned against (ryser_test.go)
// and as the shared building block of the table-based routines below. bud
// may be nil for unbudgeted use.
func (e *Explicit) countPerfectMatchings(bud *budget.Budget) (*big.Int, error) {
	n := e.N
	size := 1 << uint(n)
	dp := make([]*big.Int, size)
	dp[0] = big.NewInt(1)
	for s := 1; s < size; s++ {
		if err := bud.Charge(1); err != nil {
			return nil, fmt.Errorf("bipartite: counting perfect matchings: %w", err)
		}
		row := bits.OnesCount(uint(s)) - 1
		acc := new(big.Int)
		for _, x := range e.Adj[row] {
			bit := 1 << uint(x)
			if s&bit != 0 && dp[s^bit] != nil && dp[s^bit].Sign() > 0 {
				acc.Add(acc, dp[s^bit])
			}
		}
		dp[s] = acc
	}
	return dp[size-1], nil
}

// matchingCountsFixingLeft returns, for each right vertex x adjacent to left
// vertex w, the number of perfect matchings of the graph that contain the
// edge (w′, x). Non-adjacent entries are zero.
func (e *Explicit) matchingCountsFixingLeft(w int, bud *budget.Budget) ([]*big.Int, error) {
	n := e.N
	// DP over the left vertices excluding w, in order.
	rows := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != w {
			rows = append(rows, i)
		}
	}
	size := 1 << uint(n)
	dp := make([]*big.Int, size)
	dp[0] = big.NewInt(1)
	for s := 1; s < size; s++ {
		if err := bud.Charge(1); err != nil {
			return nil, fmt.Errorf("bipartite: counting fixed-edge matchings: %w", err)
		}
		c := bits.OnesCount(uint(s))
		if c > len(rows) {
			continue
		}
		row := rows[c-1]
		acc := new(big.Int)
		for _, x := range e.Adj[row] {
			bit := 1 << uint(x)
			if s&bit != 0 && dp[s^bit] != nil && dp[s^bit].Sign() > 0 {
				acc.Add(acc, dp[s^bit])
			}
		}
		dp[s] = acc
	}
	full := size - 1
	out := make([]*big.Int, n)
	for x := range out {
		out[x] = new(big.Int)
	}
	for _, x := range e.Adj[w] {
		// Matchings containing (w′, x): the other n-1 left vertices cover
		// exactly the right vertices except x.
		s := full ^ (1 << uint(x))
		if dp[s] != nil {
			out[x].Set(dp[s])
		}
	}
	return out, nil
}

// EnumeratePerfectMatchingsCtx calls visit for every perfect matching,
// passing the matching as match[w] = x. The slice is reused; visit must copy
// it to retain it. Enumeration explodes combinatorially; an error is returned
// when the matching count exceeds maxCount (pass 0 for a default of
// 10_000_000). One operation is charged per branch of the backtracking
// search, so cancellation aborts within one budget window even when the graph
// admits no early matchings at all.
func (e *Explicit) EnumeratePerfectMatchingsCtx(ctx context.Context, maxCount int, visit func(match []int)) error {
	if maxCount <= 0 {
		maxCount = 10_000_000
	}
	bud := budget.New(ctx, budget.Config{})
	if err := bud.Check(); err != nil {
		return err
	}
	match := make([]int, e.N)
	used := make([]bool, e.N)
	count := 0
	var rec func(w int) error
	rec = func(w int) error {
		if w == e.N {
			count++
			if count > maxCount {
				return fmt.Errorf("bipartite: more than %d perfect matchings", maxCount)
			}
			visit(match)
			return nil
		}
		for _, x := range e.Adj[w] {
			if err := bud.Charge(1); err != nil {
				return fmt.Errorf("bipartite: enumerating perfect matchings: %w", err)
			}
			if !used[x] {
				used[x] = true
				match[w] = x
				if err := rec(w + 1); err != nil {
					return err
				}
				used[x] = false
			}
		}
		return nil
	}
	return rec(0)
}
