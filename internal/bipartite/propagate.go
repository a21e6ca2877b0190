package bipartite

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/budget"
)

// ErrInfeasible is returned when propagation proves that the graph admits no
// perfect matching (no consistent crack mapping exists).
var ErrInfeasible = errors.New("bipartite: no consistent perfect matching exists")

// ForcedPair records a propagation-forced assignment: in every perfect
// matching of the graph, anonymized item Anon′ maps to item Item.
type ForcedPair struct {
	Anon int // anonymized-item id (in original space)
	Item int // original-item id
}

// Propagation is the result of the degree-1 propagation of Figure 7.
type Propagation struct {
	Forced []ForcedPair // forced edges, in discovery order
	Outdeg []int        // post-propagation outdegree per item (forced items: 1)
	Rounds int          // fixed-point iterations used
}

// ForcedCracks counts forced pairs that are cracks, i.e. where the forced
// assignment reveals the item's true identity (Anon == Item).
func (p *Propagation) ForcedCracks() int {
	c := 0
	for _, fp := range p.Forced {
		if fp.Anon == fp.Item {
			c++
		}
	}
	return c
}

// PropagateCtx runs the degree-1 propagation of Figure 7: whenever an item
// can be mapped to by exactly one remaining anonymized item — or an
// anonymized item has exactly one remaining candidate — that edge belongs to
// every perfect matching, so both endpoints are removed and degrees
// recomputed, to a fixed point. The paper notes the worst case takes v
// iterations (the cascade of Figure 6(a)) but that in practice a few rounds
// suffice.
//
// The graph itself is not modified. ErrInfeasible is reported when a degree
// reaches 0 or a group has fewer covering items than members — situations
// that can arise with α-compliant (partially wrong) belief functions. One
// operation is charged per item (or group) examined per round, so the
// Figure 6(a) worst case — v rounds each touching v items — can be
// interrupted by a deadline or operation limit instead of running
// quadratically to completion.
func (g *Graph) PropagateCtx(ctx context.Context) (*Propagation, error) {
	n := g.Items()
	k := g.NumGroups()
	bud := budget.New(ctx, budget.Config{})
	if err := bud.Check(); err != nil {
		return nil, err
	}

	sizeF := newFenwick(k)         // remaining anonymized items per group
	coverF := newRangeFenwick(k)   // active items covering each group
	coverIDF := newRangeFenwick(k) // sum of (x+1) over active covering items
	live := make([][]int, k)       // remaining anonymized ids per group
	for gi := 0; gi < k; gi++ {
		sizeF.Add(gi, g.GroupSize[gi])
		live[gi] = append([]int(nil), g.GroupItems[gi]...)
	}
	activeItems := 0
	active := make([]bool, n)
	for x := 0; x < n; x++ {
		lo, hi := g.ItemLo[x], g.ItemHi[x]
		if lo > hi {
			// The item has no consistent image; a perfect matching cannot
			// exist. (Only possible for non-compliant belief functions.)
			return nil, ErrInfeasible
		}
		active[x] = true
		activeItems++
		coverF.Add(lo, hi, 1)
		coverIDF.Add(lo, hi, x+1)
	}

	res := &Propagation{Outdeg: make([]int, n)}

	force := func(x, w, gi int) error {
		// Deactivate item x.
		lo, hi := g.ItemLo[x], g.ItemHi[x]
		active[x] = false
		activeItems--
		coverF.Add(lo, hi, -1)
		coverIDF.Add(lo, hi, -(x + 1))
		// Remove anonymized item w from group gi.
		lv := live[gi]
		for i, v := range lv {
			if v == w {
				lv[i] = lv[len(lv)-1]
				live[gi] = lv[:len(lv)-1]
				break
			}
		}
		sizeF.Add(gi, -1)
		res.Forced = append(res.Forced, ForcedPair{Anon: w, Item: x})
		res.Outdeg[x] = 1
		return nil
	}

	for activeItems > 0 {
		res.Rounds++
		changed := false
		// Item side: degree-1 items are forced to their unique candidate.
		for x := 0; x < n; x++ {
			if err := bud.Charge(1); err != nil {
				return nil, fmt.Errorf("bipartite: propagation: %w", err)
			}
			if !active[x] {
				continue
			}
			lo, hi := g.ItemLo[x], g.ItemHi[x]
			d := sizeF.RangeSum(lo, hi)
			if d == 0 {
				return nil, ErrInfeasible
			}
			if d == 1 {
				// Locate the unique remaining anonymized item in range.
				before := sizeF.PrefixSum(lo - 1)
				gi := sizeF.FindKth(before + 1)
				w := live[gi][0]
				if err := force(x, w, gi); err != nil {
					return nil, err
				}
				changed = true
			}
		}
		// Anonymized side: a group whose members have a single candidate.
		for gi := 0; gi < k; gi++ {
			if err := bud.Charge(1); err != nil {
				return nil, fmt.Errorf("bipartite: propagation: %w", err)
			}
			c := len(live[gi])
			if c == 0 {
				continue
			}
			cov := coverF.Get(gi)
			if cov < c {
				return nil, ErrInfeasible
			}
			if cov == 1 { // c == 1 because cov >= c
				x := coverIDF.Get(gi) - 1
				w := live[gi][0]
				if err := force(x, w, gi); err != nil {
					return nil, err
				}
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Residual outdegrees of the unforced items.
	for x := 0; x < n; x++ {
		if active[x] {
			res.Outdeg[x] = sizeF.RangeSum(g.ItemLo[x], g.ItemHi[x])
		}
	}
	return res, nil
}
