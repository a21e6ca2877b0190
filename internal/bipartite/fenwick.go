// Package bipartite implements the consistent-crack-mapping graph of the
// SIGMOD 2005 paper "To Do or Not To Do: The Dilemma of Disclosing Anonymized
// Data", together with the graph algorithms the paper's analyses need:
// outdegree computation for the O-estimate (Figure 5), degree-1 propagation
// (Figure 7), perfect-matching feasibility, and exact permanents for the
// direct method (Section 4.1).
//
// Because belief intervals select contiguous runs of sorted frequency groups,
// the graph admits a compact representation — one group range per item plus
// group sizes — that stays O(n + g) even when the explicit edge set would be
// quadratic (e.g. RETAIL-scale domains with wide intervals).
package bipartite

// fenwick is a Fenwick (binary indexed) tree over n slots supporting point
// updates and prefix sums in O(log n).
type fenwick struct {
	tree []int
}

func newFenwick(n int) *fenwick {
	return &fenwick{tree: make([]int, n+1)}
}

// Add adds delta to slot i (0-based).
func (f *fenwick) Add(i, delta int) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// PrefixSum returns the sum of slots [0, i] (0-based, inclusive).
// PrefixSum(-1) is 0.
func (f *fenwick) PrefixSum(i int) int {
	s := 0
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// RangeSum returns the sum of slots [lo, hi] inclusive; 0 if lo > hi.
func (f *fenwick) RangeSum(lo, hi int) int {
	if lo > hi {
		return 0
	}
	return f.PrefixSum(hi) - f.PrefixSum(lo-1)
}

// FindKth returns the smallest index i such that PrefixSum(i) >= k, assuming
// all slot values are non-negative and the total is at least k (k >= 1).
// It runs in O(log n) by descending the implicit tree.
func (f *fenwick) FindKth(k int) int {
	pos := 0
	// Largest power of two <= len(tree)-1.
	bit := 1
	for bit<<1 <= len(f.tree)-1 {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		next := pos + bit
		if next <= len(f.tree)-1 && f.tree[next] < k {
			pos = next
			k -= f.tree[next]
		}
	}
	return pos // 0-based slot index
}

// rangeFenwick supports range updates and point queries via a difference
// Fenwick tree: Add(lo, hi, delta) adds delta to every slot in [lo, hi];
// Get(i) returns slot i's value.
type rangeFenwick struct {
	diff *fenwick
}

func newRangeFenwick(n int) *rangeFenwick {
	return &rangeFenwick{diff: newFenwick(n + 1)}
}

// Add adds delta to every slot in [lo, hi] inclusive.
func (f *rangeFenwick) Add(lo, hi, delta int) {
	if lo > hi {
		return
	}
	f.diff.Add(lo, delta)
	f.diff.Add(hi+1, -delta)
}

// Get returns the current value of slot i.
func (f *rangeFenwick) Get(i int) int {
	return f.diff.PrefixSum(i)
}
