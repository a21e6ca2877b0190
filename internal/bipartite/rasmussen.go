package bipartite

import (
	"context"
	"math/rand"

	"repro/internal/budget"
)

// RasmussenEstimateCtx runs Rasmussen's simple unbiased randomized estimator
// for the permanent of a 0/1 matrix (Random Structures and Algorithms, 1994 —
// reference [21] of the paper) and returns the mean of `runs` independent
// estimates.
//
// One run proceeds row by row: pick a uniformly random admissible column for
// the current row among the still-free ones, multiplying the estimate by the
// number of admissible choices; a stuck run contributes 0. The estimator is
// unbiased but can have enormous variance — the paper dismisses known
// approximation schemes as impractical (the Jerrum–Sinclair–Vigoda FPRAS runs
// in ~O(n²²)); this estimator is included so that the comparison with the
// O-estimate can be reproduced.
//
// One operation is charged per scanned row, checked once per budget window.
// On exhaustion it returns the mean over the runs completed so far together
// with the budget error, so callers can keep the partial estimate when
// degrading.
func RasmussenEstimateCtx(ctx context.Context, e *Explicit, runs int, rng *rand.Rand) (float64, error) {
	if runs <= 0 {
		runs = 1
	}
	bud := budget.New(ctx, budget.Config{})
	if err := bud.Check(); err != nil {
		return 0, err
	}
	total := 0.0
	used := make([]bool, e.N)
	free := make([]int, 0, e.N)
	for r := 0; r < runs; r++ {
		for i := range used {
			used[i] = false
		}
		est := 1.0
		for w := 0; w < e.N && est > 0; w++ {
			if err := bud.Charge(1); err != nil {
				if r > 0 {
					return total / float64(r), err
				}
				return 0, err
			}
			free = free[:0]
			for _, x := range e.Adj[w] {
				if !used[x] {
					free = append(free, x)
				}
			}
			if len(free) == 0 {
				est = 0
				break
			}
			est *= float64(len(free))
			used[free[rng.Intn(len(free))]] = true
		}
		total += est
	}
	return total / float64(runs), nil
}
