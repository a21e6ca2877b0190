package bipartite

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/budget"
)

// itemHeap is a min-heap of items keyed by the upper end of their group
// range; used by the greedy interval matcher.
type itemHeap struct {
	ids []int
	hi  []int // indexed by item id
}

func (h *itemHeap) Len() int           { return len(h.ids) }
func (h *itemHeap) Less(i, j int) bool { return h.hi[h.ids[i]] < h.hi[h.ids[j]] }
func (h *itemHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *itemHeap) Push(x interface{}) { h.ids = append(h.ids, x.(int)) }
func (h *itemHeap) Pop() interface{} {
	v := h.ids[len(h.ids)-1]
	h.ids = h.ids[:len(h.ids)-1]
	return v
}

// PerfectMatchingCtx returns a consistent perfect matching as a slice
// mapping each item x to the anonymized item assigned to it, or
// ErrInfeasible when none exists. Because every item's candidates form a
// contiguous range of frequency groups, the classic earliest-deadline greedy
// is exact here: process groups in ascending order and serve each with the
// available items whose ranges end soonest.
//
// The matching produced is deterministic; use it as a seed for the MCMC
// sampler when the identity matching is inconsistent (α < 1 belief
// functions). One operation is charged per heap push/pop, so the
// O(n log n) greedy respects deadlines when n is web-scale even though it
// never does superlinear work.
func (g *Graph) PerfectMatchingCtx(ctx context.Context) ([]int, error) {
	n := g.Items()
	k := g.NumGroups()
	bud := budget.New(ctx, budget.Config{})
	if err := bud.Check(); err != nil {
		return nil, err
	}
	order := make([]int, n)
	for x := range order {
		order[x] = x
	}
	sort.Slice(order, func(a, b int) bool { return g.ItemLo[order[a]] < g.ItemLo[order[b]] })

	h := &itemHeap{hi: g.ItemHi}
	heap.Init(h)
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	next := 0
	for gi := 0; gi < k; gi++ {
		for next < n && g.ItemLo[order[next]] <= gi {
			x := order[next]
			if g.ItemLo[x] > g.ItemHi[x] {
				return nil, ErrInfeasible // item with no candidates
			}
			heap.Push(h, x)
			next++
		}
		for _, w := range g.GroupItems[gi] {
			if err := bud.Charge(1); err != nil {
				return nil, fmt.Errorf("bipartite: perfect matching: %w", err)
			}
			if h.Len() == 0 {
				return nil, ErrInfeasible
			}
			x := heap.Pop(h).(int)
			if g.ItemHi[x] < gi {
				return nil, ErrInfeasible // its whole range has passed
			}
			match[x] = w
		}
	}
	// All items must have been consumed: any item with ItemLo beyond the last
	// group or still in the heap cannot be matched.
	if next < n || h.Len() > 0 {
		return nil, ErrInfeasible
	}
	return match, nil
}

// Feasible reports whether a consistent perfect matching exists. A budget
// error is returned as is, never read as infeasible.
func (g *Graph) Feasible(ctx context.Context) (bool, error) {
	_, err := g.PerfectMatchingCtx(ctx)
	if errors.Is(err, ErrInfeasible) {
		return false, nil
	}
	return err == nil, err
}

// IdentityMatching returns the matching that maps every anonymized item to
// its own original (every item cracked), which is consistent exactly when the
// belief function is fully compliant. It returns ErrInfeasible otherwise.
// The paper's simulation procedure (Section 7.1) uses it as the seed state.
func (g *Graph) IdentityMatching() ([]int, error) {
	n := g.Items()
	match := make([]int, n)
	for x := 0; x < n; x++ {
		if !g.Compliant(x) {
			return nil, ErrInfeasible
		}
		match[x] = x
	}
	return match, nil
}
