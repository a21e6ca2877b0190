package bipartite

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"

	"repro/internal/budget"
)

// ExactSampler draws perfect matchings of a small explicit graph EXACTLY
// uniformly, using the same subset dynamic program as countPerfectMatchings:
// row w is matched left to right, choosing column x with probability
// proportional to the number of completions dp[remaining \ {x}]. It is the
// sample-level ground truth the MCMC sampler is validated against; the table
// costs O(2^n) memory, so n ≤ MaxExactTableN.
type ExactSampler struct {
	e  *Explicit
	dp []*big.Int
}

// NewExactSamplerCtx precomputes the completion-count table. It returns
// ErrInfeasible when the graph has no perfect matching. One operation is
// charged per dp entry, so building the O(2^n) table — the single most
// expensive allocation in the exact tier — respects deadlines and operation
// limits.
func NewExactSamplerCtx(ctx context.Context, e *Explicit) (*ExactSampler, error) {
	if e.N > MaxExactTableN {
		return nil, fmt.Errorf("bipartite: exact sampling needs n <= %d, got %d", MaxExactTableN, e.N)
	}
	bud := budget.New(ctx, budget.Config{})
	if err := bud.Check(); err != nil {
		return nil, err
	}
	n := e.N
	size := 1 << uint(n)
	// dp[s] = matchings of the first popcount(s) left vertices onto exactly
	// the right-subset s (identical to countPerfectMatchings' table).
	dp := make([]*big.Int, size)
	dp[0] = big.NewInt(1)
	for s := 1; s < size; s++ {
		if err := bud.Charge(1); err != nil {
			return nil, fmt.Errorf("bipartite: exact sampler table: %w", err)
		}
		row := bits.OnesCount(uint(s)) - 1
		acc := new(big.Int)
		for _, x := range e.Adj[row] {
			bit := 1 << uint(x)
			if s&bit != 0 && dp[s^bit].Sign() > 0 {
				acc.Add(acc, dp[s^bit])
			}
		}
		dp[s] = acc
	}
	if dp[size-1].Sign() == 0 {
		return nil, ErrInfeasible
	}
	return &ExactSampler{e: e, dp: dp}, nil
}

// Count returns the total number of perfect matchings.
func (s *ExactSampler) Count() *big.Int {
	return new(big.Int).Set(s.dp[len(s.dp)-1])
}

// Sample draws one uniformly random perfect matching, as match[w] = x.
//
// Walking rows from the LAST to the first keeps the dp table applicable: at
// step for row w (descending), the set `rem` of still-free right vertices
// has popcount w+1, and dp[rem ^ bit(x)] counts the ways rows 0..w-1 can
// finish after assigning x to w, so drawing x with probability
// dp[rem ^ bit(x)] / dp[rem] yields the exact uniform distribution by the
// chain rule.
//
//lint:allow ctxbudget a draw is at most n·deg big-int steps with n ≤ MaxExactTableN; the 2^n cost lives in NewExactSamplerCtx
func (s *ExactSampler) Sample(rng *rand.Rand) []int {
	n := s.e.N
	match := make([]int, n)
	rem := 1<<uint(n) - 1
	r := new(big.Int)
	//lint:allow loopbudget bounded n·deg with n ≤ MaxExactTableN per the ctxbudget allow above; the exponential cost is budgeted in NewExactSamplerCtx
	for w := n - 1; w >= 0; w-- {
		// Draw a uniform integer in [0, dp[rem]).
		r.Rand(rng, s.dp[rem])
		chosen := -1
		for _, x := range s.e.Adj[w] {
			bit := 1 << uint(x)
			if rem&bit == 0 {
				continue
			}
			c := s.dp[rem^bit]
			if c.Sign() == 0 {
				continue
			}
			if r.Cmp(c) < 0 {
				chosen = x
				break
			}
			r.Sub(r, c)
		}
		if chosen < 0 {
			// Cannot happen: dp[rem] > 0 guarantees a completion.
			panic("bipartite: exact sampler lost its invariant")
		}
		match[w] = chosen
		rem ^= 1 << uint(chosen)
	}
	return match
}
