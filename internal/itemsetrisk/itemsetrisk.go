// Package itemsetrisk implements the paper's Section 8.2 "ongoing work":
// extending the identity-disclosure analysis from individual items to sets of
// items. The paper's closing example: even when nothing distinguishes
// anonymized items 1′ and 2′ individually, the *itemset* {1′, 2′}
// indisputably maps to {1, 2} — and knowledge of itemset supports can in turn
// break the camouflage that equal item frequencies provide.
//
// The machinery is a color refinement (1-dimensional Weisfeiler–Leman) over
// the pairwise co-occurrence structure:
//
//   - items start colored by their frequency group (exactly the information
//     a compliant point-valued belief function gives the hacker, Lemma 3);
//   - each round recolors every item by the multiset of (neighbour color,
//     pair support) pairs over the whole domain;
//   - the fixpoint partition is invariant under anonymization (renaming items
//     is an isomorphism of the support structure), so a hacker who knows the
//     original pairwise supports — the natural 2-itemset extension of exact
//     frequency knowledge — observes the same partition in the release.
//
// Items in distinct classes are distinguishable, so the Lemma 3 analysis
// applies with classes in place of frequency groups: the expected number of
// cracks is (at least) the number of classes. (Classes are not guaranteed to
// be automorphism orbits — 1-WL is incomplete — so the class count is a
// lower bound on what an unbounded adversary separates, and the per-class
// uniformity of Lemma 3 is exact only when classes are orbits; for risk
// assessment the bound errs on the safe side for the hacker and the paper's
// "too conservative" side for the owner.)
package itemsetrisk

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/fim"
)

// PairTable stores the support of every co-occurring item pair.
type PairTable struct {
	n      int
	counts map[uint64]int
}

func pairKey(x, y int) uint64 {
	if x > y {
		x, y = y, x
	}
	return uint64(x)<<32 | uint64(uint32(y))
}

// ComputePairsCtx counts pairwise co-occurrences in one database pass. The
// cost is Σ_t |t|², so it is meant for the small and mid-size benchmarks;
// the pair enumerations of each transaction are charged as it is scanned.
func ComputePairsCtx(ctx context.Context, db *dataset.Database) (*PairTable, error) {
	bud := budget.New(ctx, budget.Config{})
	if err := bud.Check(); err != nil {
		return nil, err
	}
	pt := &PairTable{n: db.Items(), counts: make(map[uint64]int)}
	for i := 0; i < db.Transactions(); i++ {
		tx := db.Transaction(i)
		if err := bud.Charge(int64(len(tx)*(len(tx)-1)/2 + 1)); err != nil {
			return nil, fmt.Errorf("itemsetrisk: pair counting: %w", err)
		}
		for a := 0; a < len(tx); a++ {
			for b := a + 1; b < len(tx); b++ {
				pt.counts[pairKey(int(tx[a]), int(tx[b]))]++
			}
		}
	}
	return pt, nil
}

// Items returns the domain size.
func (pt *PairTable) Items() int { return pt.n }

// Support returns the number of transactions containing both x and y.
func (pt *PairTable) Support(x, y int) int {
	if x == y {
		panic(fmt.Sprintf("itemsetrisk: pair support of (%d,%d) is undefined", x, y))
	}
	return pt.counts[pairKey(x, y)]
}

// Pairs returns the number of co-occurring pairs.
func (pt *PairTable) Pairs() int { return len(pt.counts) }

// Refinement is the result of the color refinement.
type Refinement struct {
	Colors  []int // per item, dense class ids 0..Classes-1
	Classes int   // number of distinguishable classes
	Rounds  int   // rounds until fixpoint (or the cap)
}

// RefineCtx runs color refinement from the frequency-group coloring, using
// the pair supports as edge labels, for at most maxRounds rounds (0 means
// run to the fixpoint, which takes at most n rounds). Each round costs one
// operation per item plus one per directed co-occurrence edge (signature
// construction dominates, and its cost is exactly that sum).
func RefineCtx(ctx context.Context, ft *dataset.FrequencyTable, pairs *PairTable, maxRounds int) (*Refinement, error) {
	if pairs.Items() != ft.NItems {
		return nil, fmt.Errorf("itemsetrisk: pair table over %d items, counts over %d", pairs.Items(), ft.NItems)
	}
	n := ft.NItems
	gr := dataset.GroupItems(ft)
	colors := make([]int, n)
	for x := 0; x < n; x++ {
		colors[x] = gr.GroupOf(x)
	}
	classes := gr.NumGroups()
	if maxRounds <= 0 {
		maxRounds = n
	}

	// Adjacency in the co-occurrence graph, for per-item signatures.
	adj := make([][][2]int, n) // adj[x] = list of (neighbour, support)
	for key, c := range pairs.counts {
		x, y := int(key>>32), int(uint32(key))
		adj[x] = append(adj[x], [2]int{y, c})
		adj[y] = append(adj[y], [2]int{x, c})
	}
	// The counts map iterates in random order; canonicalize each adjacency
	// list so signature construction sees one layout per input, not one per
	// process.
	for x := range adj {
		sort.Slice(adj[x], func(i, j int) bool {
			if adj[x][i][0] != adj[x][j][0] {
				return adj[x][i][0] < adj[x][j][0]
			}
			return adj[x][i][1] < adj[x][j][1]
		})
	}

	bud := budget.New(ctx, budget.Config{})
	if err := bud.Check(); err != nil {
		return nil, err
	}
	roundCost := int64(n + 2*pairs.Pairs() + 1)

	res := &Refinement{Colors: colors, Classes: classes}
	classSize := make([]int, n+1)
	for round := 0; round < maxRounds; round++ {
		if err := bud.Charge(roundCost); err != nil {
			return nil, fmt.Errorf("itemsetrisk: refinement round %d: %w", round, err)
		}
		for i := range classSize {
			classSize[i] = 0
		}
		for _, c := range colors {
			classSize[c]++
		}
		sig := make([]string, n)
		for x := 0; x < n; x++ {
			sig[x] = signature(x, colors, adj[x], classSize)
		}
		// Canonicalize signatures to dense new colors.
		index := map[string]int{}
		next := 0
		newColors := make([]int, n)
		for x := 0; x < n; x++ {
			id, ok := index[sig[x]]
			if !ok {
				id = next
				next++
				index[sig[x]] = id
			}
			newColors[x] = id
		}
		res.Rounds = round + 1
		if next == classes {
			// Refinement is monotone, so an unchanged class count means the
			// partition itself is stable: fixpoint.
			break
		}
		classes = next
		colors = newColors
		res.Colors = colors
		res.Classes = classes
	}
	return res, nil
}

// signature encodes (own color, multiset of (neighbour color, pair support)),
// with non-co-occurring pairs represented implicitly per class so that the
// encoding is exact yet stays proportional to the co-occurrence degree.
func signature(x int, colors []int, neigh [][2]int, classSize []int) string {
	type edge struct{ color, support int }
	edges := make([]edge, 0, len(neigh))
	nonzeroPerColor := map[int]int{}
	for _, e := range neigh {
		c := colors[e[0]]
		edges = append(edges, edge{color: c, support: e[1]})
		nonzeroPerColor[c]++
	}
	// Zero-support co-memberships per color complete the multiset; only
	// colors with any member besides x matter, and zero-edges to a class are
	// determined by classSize - nonzero (minus x itself for its own class).
	for c, nz := range nonzeroPerColor {
		size := classSize[c]
		if c == colors[x] {
			size--
		}
		if zero := size - nz; zero > 0 {
			edges = append(edges, edge{color: c, support: 0})
			// Encode the count of zeros in the support field's twin entry
			// below via repetition-free form: (color, 0) plus the count.
			edges[len(edges)-1].support = -zero
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].color != edges[j].color {
			return edges[i].color < edges[j].color
		}
		return edges[i].support < edges[j].support
	})
	buf := make([]byte, 0, 16+len(edges)*10)
	buf = appendVarint(buf, colors[x])
	for _, e := range edges {
		buf = appendVarint(buf, e.color)
		buf = appendVarint(buf, e.support)
	}
	return string(buf)
}

func appendVarint(b []byte, v int) []byte {
	// Zig-zag then base-128 varint.
	u := uint64(uint(v) << 1)
	if v < 0 {
		u = uint64(uint(^v)<<1) | 1
	}
	for u >= 0x80 {
		b = append(b, byte(u)|0x80)
		u >>= 7
	}
	return append(b, byte(u), 0xff)
}

// ExpectedCracksPairAware returns the Lemma 3-style expected crack count for
// a hacker holding exact item frequencies AND exact pairwise supports: the
// number of refinement classes. It also returns the refinement itself.
func ExpectedCracksPairAware(ctx context.Context, db *dataset.Database, maxRounds int) (float64, *Refinement, error) {
	pairs, err := ComputePairsCtx(ctx, db)
	if err != nil {
		return 0, nil, err
	}
	ref, err := RefineCtx(ctx, db.Table(), pairs, maxRounds)
	if err != nil {
		return 0, nil, err
	}
	return float64(ref.Classes), ref, nil
}

// IdentifiedItemsets counts how many of the given frequent itemsets are
// uniquely identified by their observable signature (size, support, multiset
// of member classes): an anonymized itemset with a unique signature maps
// "indisputably" (the paper's word) to its original. Returns the number
// identified and the total.
func IdentifiedItemsets(sets []fim.FrequentItemset, colors []int) (identified, total int) {
	bySig := map[string][]int{}
	for i, fs := range sets {
		bySig[itemsetSignature(fs, colors)] = append(bySig[itemsetSignature(fs, colors)], i)
	}
	for _, idx := range bySig {
		if len(idx) == 1 {
			identified++
		}
	}
	return identified, len(sets)
}

func itemsetSignature(fs fim.FrequentItemset, colors []int) string {
	cs := make([]int, len(fs.Items))
	for i, x := range fs.Items {
		cs[i] = colors[x]
	}
	sort.Ints(cs)
	buf := appendVarint(nil, len(fs.Items))
	buf = appendVarint(buf, fs.Support)
	for _, c := range cs {
		buf = appendVarint(buf, c)
	}
	return string(buf)
}
