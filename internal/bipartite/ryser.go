package bipartite

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/budget"
)

// Gray-code Ryser permanent (DESIGN.md §16).
//
// Ryser's inclusion–exclusion formula writes the permanent of a 0/1
// biadjacency matrix as
//
//	perm(A) = Σ_{S ⊆ cols} (-1)^{n-|S|} Π_i r_i(S),   r_i(S) = |Adj[i] ∩ S|,
//
// and visiting the column subsets in Gray-code order changes exactly one
// column per step, so each row sum is maintained incrementally: flipping
// column j touches only the deg(j) rows adjacent to j. Amortized over the
// 2^n subsets that is O(2^n · n) WORD operations — machine adds and
// multiplies, not big-integer additions like the subset DP — and O(n)
// memory instead of the DP's O(2^n) table of big.Ints.
//
// All arithmetic stays in fixed-width words: row sums are at most n ≤ 30,
// so a term Π r_i(S) ≤ 30^30 < 2^148 fits in three 64-bit words, and the
// 2^30 terms of each sign sum to < 2^178, held in a four-word accumulator
// pair (one per sign). big.Int appears only once, at the boundary, when the
// positive and negative accumulators are subtracted into the exact result.

// ryserScratch holds the per-call working state of the Gray-code kernel, so
// a warm caller (the n+1 diagonal-minor passes of exact expected cracks, or
// a benchmark loop) runs the accumulator core without allocating.
type ryserScratch struct {
	colMask []uint64 // colMask[j] = bitmask over rows i with j ∈ Adj[i]
	rowSum  []int32  // r_i(S) for the current Gray-code subset S
}

// reset prepares the scratch for a graph of n rows, growing the backing
// arrays only when n exceeds every earlier use.
func (sc *ryserScratch) reset(n int) {
	if cap(sc.colMask) < n {
		sc.colMask = make([]uint64, n)
		sc.rowSum = make([]int32, n)
	}
	sc.colMask = sc.colMask[:n]
	sc.rowSum = sc.rowSum[:n]
	for i := range sc.colMask {
		sc.colMask[i] = 0
		sc.rowSum[i] = 0
	}
}

// ryserBlock is the number of Gray-code steps charged to the budget at
// once: the inner loop stays branch-lean and cancellation still lands
// within a few microseconds of the deadline.
const ryserBlock = 1 << 12

// countPerfectMatchingsRyser is the Gray-code Ryser kernel. bud may be nil
// for unbudgeted use; sc may be nil to allocate fresh scratch. Only the
// final conversion touches big.Int.
func (e *Explicit) countPerfectMatchingsRyser(bud *budget.Budget, sc *ryserScratch) (*big.Int, error) {
	if e.N == 0 {
		// Empty minor: the empty matching, exactly one.
		return big.NewInt(1), nil
	}
	if sc == nil {
		sc = &ryserScratch{}
	}
	diff, err := e.ryserWords(bud, sc)
	if err != nil {
		return nil, err
	}
	out := new(big.Int)
	tmp := new(big.Int)
	for k := 3; k >= 0; k-- {
		out.Lsh(out, 64)
		out.Or(out, tmp.SetUint64(diff[k]))
	}
	return out, nil
}

// ryserWords is the accumulator core: everything up to (and including) the
// signed subtraction runs in fixed-width words, so a warm scratch makes the
// whole pass allocation-free — the property ryser_test.go pins. The
// 256-bit little-endian result is the exact permanent.
func (e *Explicit) ryserWords(bud *budget.Budget, sc *ryserScratch) ([4]uint64, error) {
	n := e.N
	var zero [4]uint64
	if n > 63 {
		return zero, fmt.Errorf("bipartite: ryser permanent needs n <= 63, got %d", n)
	}
	sc.reset(n)
	for w, row := range e.Adj {
		if err := bud.Charge(int64(len(row) + 1)); err != nil {
			return zero, fmt.Errorf("bipartite: ryser permanent: %w", err)
		}
		for _, x := range row {
			sc.colMask[x] |= 1 << uint(w)
		}
	}
	rowSum := sc.rowSum
	colMask := sc.colMask

	var pos, neg [4]uint64
	zeros := n // rows with r_i(S) = 0; any such row kills the term
	size := 0  // |S|
	var cur uint64
	total := uint64(1) << uint(n)
	for start := uint64(1); start < total; {
		end := start + ryserBlock
		if end > total {
			end = total
		}
		if err := bud.Charge(int64(end - start)); err != nil {
			return zero, fmt.Errorf("bipartite: ryser permanent: %w", err)
		}
		for m := start; m < end; m++ {
			// Gray code: step m toggles column j = TrailingZeros64(m).
			j := bits.TrailingZeros64(m)
			bit := uint64(1) << uint(j)
			cur ^= bit
			if cur&bit != 0 {
				size++
				for mask := colMask[j]; mask != 0; mask &= mask - 1 {
					i := bits.TrailingZeros64(mask)
					if rowSum[i] == 0 {
						zeros--
					}
					rowSum[i]++
				}
			} else {
				size--
				for mask := colMask[j]; mask != 0; mask &= mask - 1 {
					i := bits.TrailingZeros64(mask)
					rowSum[i]--
					if rowSum[i] == 0 {
						zeros++
					}
				}
			}
			if zeros != 0 {
				continue // some r_i(S) = 0, the product vanishes
			}
			// Π r_i(S) in three words; r_i ≤ 30 keeps the top word's high
			// product and the final carry provably zero.
			p0 := uint64(rowSum[0])
			var p1, p2 uint64
			for i := 1; i < n; i++ {
				s := uint64(rowSum[i])
				hi0, lo0 := bits.Mul64(p0, s)
				hi1, lo1 := bits.Mul64(p1, s)
				_, lo2 := bits.Mul64(p2, s)
				var c uint64
				p0 = lo0
				p1, c = bits.Add64(lo1, hi0, 0)
				p2, _ = bits.Add64(lo2, hi1, c)
			}
			acc := &pos
			if (n-size)&1 != 0 {
				acc = &neg
			}
			var c uint64
			acc[0], c = bits.Add64(acc[0], p0, 0)
			acc[1], c = bits.Add64(acc[1], p1, c)
			acc[2], c = bits.Add64(acc[2], p2, c)
			acc[3], _ = bits.Add64(acc[3], 0, c)
		}
		start = end
	}

	// Boundary: perm = pos - neg, exactly, and the permanent of a 0/1
	// matrix is non-negative, so the four-word subtraction cannot borrow.
	var diff [4]uint64
	var borrow uint64
	diff[0], borrow = bits.Sub64(pos[0], neg[0], 0)
	diff[1], borrow = bits.Sub64(pos[1], neg[1], borrow)
	diff[2], borrow = bits.Sub64(pos[2], neg[2], borrow)
	diff[3], borrow = bits.Sub64(pos[3], neg[3], borrow)
	if borrow != 0 {
		return zero, fmt.Errorf("bipartite: ryser accumulator underflow (n=%d)", n)
	}
	return diff, nil
}

// DiagonalMatchingCountsCtx returns perm(A) and, for each item x whose
// diagonal edge (x′, x) exists, perm(minor(x, x)) — the numerators of the
// exact expected-crack sum of Section 4.1. Entries for absent diagonal
// edges are nil. The n+1 Gray-code Ryser passes share one budget (and one
// scratch), so an operation limit bounds the whole computation, and the
// O(n) memory — no 2^n DP table — is what lets the exact tier reach
// n = MaxExactN. ErrInfeasible is returned when the graph has no perfect
// matching.
func (e *Explicit) DiagonalMatchingCountsCtx(ctx context.Context) (total *big.Int, diag []*big.Int, err error) {
	if e.N > MaxExactN {
		return nil, nil, fmt.Errorf("bipartite: exact count needs n <= %d, got %d", MaxExactN, e.N)
	}
	bud := budget.New(ctx, budget.Config{})
	if err := bud.Check(); err != nil {
		return nil, nil, err
	}
	sc := &ryserScratch{}
	total, err = e.countPerfectMatchingsRyser(bud, sc)
	if err != nil {
		return nil, nil, err
	}
	if total.Sign() == 0 {
		return nil, nil, ErrInfeasible
	}
	diag = make([]*big.Int, e.N)
	for x := 0; x < e.N; x++ {
		if !e.HasEdge(x, x) {
			continue
		}
		diag[x], err = e.Minor(x, x).countPerfectMatchingsRyser(bud, sc)
		if err != nil {
			return nil, nil, err
		}
	}
	return total, diag, nil
}
