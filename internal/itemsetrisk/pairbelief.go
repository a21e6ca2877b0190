package itemsetrisk

import (
	"context"
	"fmt"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/budget"
)

// PairBelief is the hacker's prior about one 2-itemset of the original
// domain: the support of {A, B} lies in the closed fraction interval Iv.
// This is the paper's §8.2 direction made operational: belief functions
// "defined over the powerset" instead of single items.
type PairBelief struct {
	A, B int
	Iv   belief.Interval
}

// PruneWithPairBeliefsCtx refines an item-level consistency graph using
// 2-itemset beliefs by arc consistency: the edge (w′, x) survives only if,
// for every believed pair {x, y}, some candidate w2′ of y co-occurs with w′
// at a rate inside the believed interval (and symmetrically). Pruning
// iterates to a fixed point (AC-3 style).
//
// Soundness: a deleted edge belongs to no crack mapping that satisfies every
// pair belief, because any such mapping would provide the missing witness.
// The pruning is not complete — surviving edges may still be jointly
// unsatisfiable — mirroring the O-estimate's local character.
//
// pairs must hold the co-occurrence counts of the *anonymized release* over
// nTransactions transactions; since anonymization preserves co-occurrence,
// callers working in the identity-aligned id space can pass the original's
// pair table.
//
// Each candidate-edge revision charges one operation per belief it must
// witness; the AC-3 loop can revise an edge once per removal elsewhere, so
// the budget is what bounds adversarially slow fixpoints.
func PruneWithPairBeliefsCtx(ctx context.Context, g *bipartite.Explicit, pairs *PairTable, nTransactions int, beliefs []PairBelief) (*bipartite.Explicit, int, error) {
	n := g.N
	if pairs.Items() != n {
		return nil, 0, fmt.Errorf("itemsetrisk: pair table over %d items, graph over %d", pairs.Items(), n)
	}
	if nTransactions <= 0 {
		return nil, 0, fmt.Errorf("itemsetrisk: %d transactions, want > 0", nTransactions)
	}
	// Beliefs indexed per item.
	perItem := make([][]PairBelief, n)
	for _, pb := range beliefs {
		if pb.A == pb.B || pb.A < 0 || pb.B < 0 || pb.A >= n || pb.B >= n {
			return nil, 0, fmt.Errorf("itemsetrisk: invalid pair belief {%d,%d}", pb.A, pb.B)
		}
		perItem[pb.A] = append(perItem[pb.A], pb)
		perItem[pb.B] = append(perItem[pb.B], PairBelief{A: pb.B, B: pb.A, Iv: pb.Iv})
	}

	// Mutable candidate sets: cand[x] = set of anonymized items that may map
	// to x.
	cand := make([]map[int]bool, n)
	for x := range cand {
		cand[x] = map[int]bool{}
	}
	for w := 0; w < n; w++ {
		for _, x := range g.Adj[w] {
			cand[x][w] = true
		}
	}
	m := float64(nTransactions)
	removed := 0
	bud := budget.New(ctx, budget.Config{})
	if err := bud.Check(); err != nil {
		return nil, 0, err
	}

	supported := func(x, w int) bool {
		// Every pair belief {x, y} needs a witness candidate for y.
		for _, pb := range perItem[x] {
			y := pb.B
			ok := false
			for w2 := range cand[y] {
				if w2 == w {
					continue // a 1-1 mapping cannot reuse w
				}
				//lint:allow maporder existential scan of a pure predicate: any witness order yields the same boolean
				if pb.Iv.Contains(float64(pairs.Support(w, w2)) / m) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}

	changed := true
	for changed {
		changed = false
		for x := 0; x < n; x++ {
			if len(perItem[x]) == 0 {
				continue
			}
			for w := range cand[x] {
				if err := bud.Charge(int64(len(perItem[x]) + 1)); err != nil {
					return nil, 0, fmt.Errorf("itemsetrisk: pair-belief pruning: %w", err)
				}
				//lint:allow maporder monotone pruning to a unique fixed point: deletions commute, so visit order cannot change the result
				if !supported(x, w) {
					delete(cand[x], w)
					removed++
					changed = true
				}
			}
		}
	}

	adj := make([][]int, n)
	for w := 0; w < n; w++ {
		for _, x := range g.Adj[w] {
			if cand[x][w] {
				adj[w] = append(adj[w], x)
			}
		}
	}
	pruned, err := bipartite.NewExplicit(n, adj)
	if err != nil {
		return nil, 0, err
	}
	return pruned, removed, nil
}

// ExactPairBeliefs builds fully compliant point-like pair beliefs for the
// given pairs from the true database supports, with slack delta on each side
// — the 2-itemset analogue of belief.UniformWidth.
func ExactPairBeliefs(pairs *PairTable, nTransactions int, whichPairs [][2]int, delta float64) []PairBelief {
	m := float64(nTransactions)
	out := make([]PairBelief, 0, len(whichPairs))
	for _, p := range whichPairs {
		f := float64(pairs.Support(p[0], p[1])) / m
		out = append(out, PairBelief{
			A: p[0], B: p[1],
			Iv: belief.Interval{Lo: f - delta, Hi: f + delta}.Clamp(),
		})
	}
	return out
}
