package bipartite

import (
	"fmt"
	"sort"

	"repro/internal/belief"
	"repro/internal/bitset"
	"repro/internal/dataset"
)

// Graph is the compact representation of the bipartite graph
// G = (J ∪ I, E) of Section 2.3: anonymized items J on one side, original
// items I on the other, with an edge (w′, x) whenever the observed frequency
// of w′ lies in x's belief interval.
//
// Because the anonymization is a bijection and observed frequencies are
// permutation-invariant, anonymized items are identified here by the original
// item they hide: "anonymized item x′" is represented by the id x. The graph
// never depends on the concrete anonymization mapping.
//
// Anonymized items are grouped by observed frequency (ascending); an item's
// belief interval covers a contiguous range of groups, stored as
// [ItemLo[x], ItemHi[x]] (inclusive; ItemLo[x] > ItemHi[x] means the item has
// no consistent counterpart, which can only happen for non-compliant items).
type Graph struct {
	Freqs      []float64 // distinct observed frequencies, ascending (len g)
	GroupSize  []int     // number of anonymized items per group
	GroupItems [][]int   // anonymized-item ids per group (ids in original space)
	ItemGroup  []int     // true group of each item (= group of its anonymized twin)
	ItemLo     []int     // first group index covered by the item's belief interval
	ItemHi     []int     // last group index covered (inclusive)

	prefix []int // prefix[i] = total anonymized items in groups [0, i)

	// Flat candidate layout (DESIGN.md §11): flat is the concatenation of
	// GroupItems in group order, so the anonymized items consistent with
	// item x occupy the contiguous window
	// flat[candBase[x] : candBase[x]+candSpan[x]] — samplers draw a uniform
	// candidate with one bounded-rand draw and one array index instead of
	// two prefix lookups and a binary search.
	flat     []int
	candBase []int
	candSpan []int

	// Word-packed kernels (DESIGN.md §16): compliant has bit x set when
	// Compliant(x), so the O-estimate scans 64 items per load; invSpan[x] is
	// the reciprocal 1/candSpan[x] (0 for empty ranges), precomputed so the
	// scan's float adds skip the per-item division. Both are derived state
	// that Build fills, exactly like the flat candidate layout.
	compliant bitset.Set
	invSpan   []float64
}

// Build constructs the graph from a belief function and the grouping of the
// (anonymized) database. The belief function and grouping must share the same
// domain size.
//
//lint:allow ctxbudget O(n log n) construction that even the cascade's floor tier cannot skip
func Build(bf *belief.Function, gr *dataset.Grouping) (*Graph, error) {
	n := gr.NumItems()
	if bf.Items() != n {
		return nil, fmt.Errorf("bipartite: belief domain %d != dataset domain %d", bf.Items(), n)
	}
	k := gr.NumGroups()
	g := &Graph{
		Freqs:      gr.Freqs(),
		GroupSize:  make([]int, k),
		GroupItems: make([][]int, k),
		ItemGroup:  make([]int, n),
		ItemLo:     make([]int, n),
		ItemHi:     make([]int, n),
		prefix:     make([]int, k+1),
	}
	//lint:allow loopbudget partition sweep over disjoint groups is O(n) total, per the ctxbudget allow above
	for gi, grp := range gr.Groups {
		g.GroupSize[gi] = len(grp.Items)
		g.GroupItems[gi] = append([]int(nil), grp.Items...)
		for _, x := range grp.Items {
			g.ItemGroup[x] = gi
		}
	}
	for gi := 0; gi < k; gi++ {
		g.prefix[gi+1] = g.prefix[gi] + g.GroupSize[gi]
	}
	for x := 0; x < n; x++ {
		iv := bf.Interval(x)
		g.ItemLo[x], g.ItemHi[x] = groupRange(g.Freqs, iv)
	}
	g.flat = make([]int, 0, n)
	for _, items := range g.GroupItems {
		g.flat = append(g.flat, items...)
	}
	g.candBase = make([]int, n)
	g.candSpan = make([]int, n)
	for x := 0; x < n; x++ {
		lo, hi := g.ItemLo[x], g.ItemHi[x]
		if lo > hi {
			continue // no consistent counterpart: zero span, base irrelevant
		}
		g.candBase[x] = g.prefix[lo]
		g.candSpan[x] = g.prefix[hi+1] - g.prefix[lo]
	}
	g.compliant = bitset.New(n)
	g.invSpan = make([]float64, n)
	for x := 0; x < n; x++ {
		if g.Compliant(x) {
			g.compliant.Add(x)
		}
		if g.candSpan[x] > 0 {
			g.invSpan[x] = 1 / float64(g.candSpan[x])
		}
	}
	return g, nil
}

// groupRange returns the inclusive range of indices of freqs (sorted
// ascending) falling inside the closed interval iv, with belief.Epsilon
// slack. An empty range is returned as (1, 0)-style lo > hi.
//
// The bounds must agree with belief.Interval.Contains on every frequency —
// edges of the graph are defined as "observed frequency lies in the belief
// interval", and Compliant/CompliantCount must match belief.CompliantMask.
// Contains admits f ∈ [Lo−ε, Hi+ε] with both endpoints included, so the
// upper search uses > (first index strictly beyond Hi+ε) rather than
// SearchFloat64s' ≥, which would drop a frequency lying exactly at Hi+ε.
//
// The lower bound needs no such correction: SearchFloat64s returns the first
// index with freqs[i] ≥ Lo−ε, which is exactly Contains' admission test
// f ≥ Lo−ε — a frequency lying precisely at Lo−ε is the first covered index.
// TestGroupRangeExactEpsilonBoundary and TestHasEdgeMatchesContainsExactLoEps
// pin this with Nextafter-solved exact-boundary frequencies on both sides.
func groupRange(freqs []float64, iv belief.Interval) (lo, hi int) {
	lo = sort.SearchFloat64s(freqs, iv.Lo-belief.Epsilon)
	hi = sort.Search(len(freqs), func(i int) bool { return freqs[i] > iv.Hi+belief.Epsilon }) - 1
	return lo, hi
}

// Items returns the domain size n.
func (g *Graph) Items() int { return len(g.ItemGroup) }

// NumGroups returns the number of distinct observed frequencies.
func (g *Graph) NumGroups() int { return len(g.Freqs) }

// Outdegree returns O_x: the number of anonymized items whose observed
// frequency lies in item x's belief interval, i.e. the number of anonymized
// items that a consistent mapping may send to x.
func (g *Graph) Outdegree(x int) int {
	lo, hi := g.ItemLo[x], g.ItemHi[x]
	if lo > hi {
		return 0
	}
	return g.prefix[hi+1] - g.prefix[lo]
}

// Outdegrees returns O_x for every item, without propagation. This is the
// quantity Step 4 of the O-estimate procedure (Figure 5) computes via
// frequency groups and prefix sums in O(n log n).
func (g *Graph) Outdegrees() []int {
	out := make([]int, g.Items())
	for x := range out {
		out[x] = g.Outdegree(x)
	}
	return out
}

// NumEdges returns |E| = Σ_x O_x.
func (g *Graph) NumEdges() int {
	total := 0
	for x := 0; x < g.Items(); x++ {
		total += g.Outdegree(x)
	}
	return total
}

// HasEdge reports whether anonymized item w′ may map to item x, i.e. whether
// w's observed frequency group lies in x's belief range.
func (g *Graph) HasEdge(w, x int) bool {
	gw := g.ItemGroup[w]
	return g.ItemLo[x] <= gw && gw <= g.ItemHi[x]
}

// Compliant reports whether item x's own anonymized twin is a consistent
// image, i.e. the edge (x′, x) exists. This matches belief-function
// compliancy on x (Section 2.3).
func (g *Graph) Compliant(x int) bool { return g.HasEdge(x, x) }

// CompliantCount returns the number of items on which the underlying belief
// function is compliant.
func (g *Graph) CompliantCount() int {
	c := 0
	for x := 0; x < g.Items(); x++ {
		if g.Compliant(x) {
			c++
		}
	}
	return c
}

// OutdegreePrefix returns the total number of anonymized items in the first
// gi frequency groups (groups [0, gi)). Kept for propagation and tests; the
// sampler hot path reads the flat candidate layout instead.
func (g *Graph) OutdegreePrefix(gi int) int { return g.prefix[gi] }

// Candidates returns the anonymized items consistent with item x as a
// subslice of the graph's flat group-ordered candidate array — zero-copy,
// zero-alloc, and in ascending group order. The k-th consistent candidate
// of x is Candidates(x)[k]; the slice must not be mutated.
func (g *Graph) Candidates(x int) []int {
	return g.flat[g.candBase[x] : g.candBase[x]+g.candSpan[x]]
}

// ComplianceSet returns the word-packed set {x : Compliant(x)}, shared with
// the graph and read-only for callers. The O-estimate kernels AND its words
// against their masks and walk set bits with math/bits.TrailingZeros64
// instead of testing items one branch at a time.
func (g *Graph) ComplianceSet() bitset.Set { return g.compliant }

// OutdegreeReciprocals returns the precomputed per-item 1/O_x vector
// (0 where O_x = 0), shared with the graph and read-only for callers.
// 1/float64(O_x) is computed once here with the very operation the scans
// historically performed per visit, so sums over it are bit-for-bit equal to
// the division-per-item loops it replaces.
func (g *Graph) OutdegreeReciprocals() []float64 { return g.invSpan }

// CandidateLayout exposes the flat candidate arrays to the sampler kernel:
// flat is the group-ordered concatenation of GroupItems, and item x's
// consistent candidates are flat[base[x] : base[x]+span[x]]. Callers
// capture the three slice headers once and index them directly in the
// per-proposal loop — one bounded-rand draw plus one load replaces the two
// prefix lookups and the binary search of the pre-flat kernel. The slices
// are shared with the graph and must be treated as read-only.
func (g *Graph) CandidateLayout() (flat, base, span []int) {
	return g.flat, g.candBase, g.candSpan
}
