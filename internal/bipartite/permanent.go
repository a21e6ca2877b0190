package bipartite

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/budget"
)

// MaxExactN caps the size of graphs accepted by the exact counting
// routines. Counting perfect matchings is #P-complete (Valiant 1979, [25] in
// the paper); the Gray-code Ryser kernel (ryser.go) costs O(2^n · n) machine
// words and O(n) memory, which is practical to about n = 30.
const MaxExactN = 30

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
