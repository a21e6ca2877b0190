package bipartite

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/budget"
)

// PropagateCtx runs the degree-1 propagation of Figure 7 on an explicit
// graph: any vertex (on either side) with exactly one remaining neighbour has
// its edge in every perfect matching; the pair is removed and degrees
// updated, to a fixed point. It mirrors Graph.PropagateCtx for graphs that
// are not interval-structured — e.g. the relational consistency graphs of
// Section 8.1. ErrInfeasible is returned when a vertex runs out of
// neighbours (or starts with none). One operation is charged per worklist
// pop, so a pathological cascade over a dense explicit graph can be cut off
// by a deadline or op limit.
//
// The sweeps run word-parallel (DESIGN.md §16): the adjacency is packed into
// row and column bit matrices, the alive sets into word vectors, and every
// degree rescan is an AND+popcount over ⌈n/64⌉ words instead of a branch per
// edge. Stride indexing keeps each vertex's row contiguous, so a rescan is a
// straight-line word loop.
func (e *Explicit) PropagateCtx(ctx context.Context) (*Propagation, error) {
	n := e.N
	bud := budget.New(ctx, budget.Config{})
	if err := bud.Check(); err != nil {
		return nil, err
	}
	nw := bitset.WordsFor(n)
	// rowBits[w*nw : (w+1)*nw] packs Adj[w] over right vertices; colBits is
	// the transpose. aliveL/aliveR start full.
	rowBits := make([]uint64, n*nw)
	colBits := make([]uint64, n*nw)
	aliveL := bitset.New(n)
	aliveR := bitset.New(n)
	aliveL.Fill()
	aliveR.Fill()
	alW, arW := aliveL.Words(), aliveR.Words()
	degL := make([]int, n)
	degR := make([]int, n)
	for w := 0; w < n; w++ {
		if err := bud.Check(); err != nil {
			return nil, err
		}
		degL[w] = len(e.Adj[w])
		row := rowBits[w*nw : (w+1)*nw]
		for _, x := range e.Adj[w] {
			row[x>>6] |= 1 << uint(x&63)
			colBits[x*nw+(w>>6)] |= 1 << uint(w&63)
			degR[x]++
		}
	}
	res := &Propagation{Outdeg: make([]int, n)}
	matchedR := bitset.New(n)

	queue := make([]int, 0, 2*n) // encoded: w for left, n+x for right
	for v := 0; v < n; v++ {
		if degL[v] <= 1 {
			queue = append(queue, v)
		}
		if degR[v] <= 1 {
			queue = append(queue, n+v)
		}
	}

	// countAlive rescans one packed row against an alive vector: total
	// popcount and, for the degree-1 case the caller acts on, the unique
	// surviving neighbour.
	countAlive := func(row, alive []uint64) (d, last int) {
		last = -1
		for k, rw := range row {
			if m := rw & alive[k]; m != 0 {
				d += bits.OnesCount64(m)
				last = k<<6 + bits.TrailingZeros64(m)
			}
		}
		return d, last
	}

	force := func(w, x int) {
		res.Forced = append(res.Forced, ForcedPair{Anon: w, Item: x})
		res.Outdeg[x] = 1
		aliveL.Remove(w)
		aliveR.Remove(x)
		matchedR.Add(x)
		row := rowBits[w*nw : (w+1)*nw]
		//lint:allow loopbudget amortized O(1) per edge: each neighbour's degree drops at most once per forced pair across the whole fixpoint, and the queue loop charges per pop
		for k, rw := range row {
			m := rw & arW[k]
			base := k << 6
			for ; m != 0; m &= m - 1 {
				y := base + bits.TrailingZeros64(m)
				degR[y]--
				if degR[y] <= 1 {
					queue = append(queue, n+y)
				}
			}
		}
		col := colBits[x*nw : (x+1)*nw]
		//lint:allow loopbudget amortized O(1) per edge: same argument as the row sweep above
		for k, cw := range col {
			m := cw & alW[k]
			base := k << 6
			for ; m != 0; m &= m - 1 {
				v := base + bits.TrailingZeros64(m)
				degL[v]--
				if degL[v] <= 1 {
					queue = append(queue, v)
				}
			}
		}
	}

	for len(queue) > 0 {
		if err := bud.Charge(1); err != nil {
			return nil, fmt.Errorf("bipartite: explicit propagation: %w", err)
		}
		enc := queue[0]
		queue = queue[1:]
		if enc < n {
			w := enc
			if !aliveL.Contains(w) {
				continue
			}
			d, last := countAlive(rowBits[w*nw:(w+1)*nw], arW)
			if d == 0 {
				return nil, ErrInfeasible
			}
			if d == 1 {
				force(w, last)
			}
		} else {
			x := enc - n
			if !aliveR.Contains(x) {
				continue
			}
			d, last := countAlive(colBits[x*nw:(x+1)*nw], alW)
			if d == 0 {
				return nil, ErrInfeasible
			}
			if d == 1 {
				force(last, x)
			}
		}
	}

	res.Rounds = 1 // worklist formulation: a single logical pass to fixpoint
	for x := 0; x < n; x++ {
		if err := bud.Check(); err != nil {
			return nil, err
		}
		if matchedR.Contains(x) {
			continue
		}
		d, _ := countAlive(colBits[x*nw:(x+1)*nw], alW)
		res.Outdeg[x] = d
	}
	return res, nil
}
