package bipartite

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/budget"
)

// Explicit is an explicit bipartite graph over n anonymized items (left) and
// n original items (right), stored as adjacency lists. It is the
// representation used by the exact, exponential-cost algorithms of the direct
// method (Section 4.1) and by small worked examples; large graphs should stay
// in the compact Graph form.
type Explicit struct {
	N   int
	Adj [][]int // Adj[w] = sorted list of items x with an edge (w′, x)
}

// NewExplicit builds an explicit graph from raw adjacency lists. Lists are
// copied; vertex ids must be in [0, n) and rows must not repeat an edge
// (duplicates would corrupt degree-based algorithms like propagation).
//
//lint:allow ctxbudget one linear validation pass over the edge list; no superlinear work
func NewExplicit(n int, adj [][]int) (*Explicit, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bipartite: explicit graph size %d, want > 0", n)
	}
	if len(adj) != n {
		return nil, fmt.Errorf("bipartite: adjacency has %d rows, want %d", len(adj), n)
	}
	e := &Explicit{N: n, Adj: make([][]int, n)}
	seen := make([]int, n) // seen[x] = w+1 when (w,x) already added
	//lint:allow loopbudget one linear validation pass over the edge list, per the ctxbudget allow above
	for w, row := range adj {
		e.Adj[w] = append([]int(nil), row...)
		for _, x := range row {
			if x < 0 || x >= n {
				return nil, fmt.Errorf("bipartite: edge (%d,%d) out of range", w, x)
			}
			if seen[x] == w+1 {
				return nil, fmt.Errorf("bipartite: duplicate edge (%d,%d)", w, x)
			}
			seen[x] = w + 1
		}
	}
	return e, nil
}

// MustExplicit is NewExplicit, panicking on error.
func MustExplicit(n int, adj [][]int) *Explicit {
	e, err := NewExplicit(n, adj)
	if err != nil {
		panic(err)
	}
	return e
}

// ToExplicit expands the compact graph into explicit adjacency lists.
// The edge set can be quadratic; intended for small domains only.
//
//lint:allow ctxbudget a straight copy bounded by the output edge set it allocates anyway
func (g *Graph) ToExplicit() *Explicit {
	n := g.Items()
	e := &Explicit{N: n, Adj: make([][]int, n)}
	//lint:allow loopbudget bounded by the output edge set it allocates anyway, per the ctxbudget allow above
	for w := 0; w < n; w++ {
		gw := g.ItemGroup[w]
		for x := 0; x < n; x++ {
			if g.ItemLo[x] <= gw && gw <= g.ItemHi[x] {
				e.Adj[w] = append(e.Adj[w], x)
			}
		}
	}
	return e
}

// HasEdge reports whether the edge (w′, x) is present.
func (e *Explicit) HasEdge(w, x int) bool {
	for _, y := range e.Adj[w] {
		if y == x {
			return true
		}
	}
	return false
}

// NumEdges returns the total number of edges.
func (e *Explicit) NumEdges() int {
	total := 0
	for _, row := range e.Adj {
		total += len(row)
	}
	return total
}

// Minor returns the graph with left vertex w and right vertex x removed,
// relabeling remaining vertices to stay dense. It is the building block of
// the permanent-minor expansion used for exact expected cracks.
//
//lint:allow ctxbudget a straight copy of the edge list; the exponential caller (permanent) is budgeted
func (e *Explicit) Minor(w, x int) *Explicit {
	m := &Explicit{N: e.N - 1, Adj: make([][]int, e.N-1)}
	ri := 0
	//lint:allow loopbudget straight copy of the edge list; the exponential caller (permanent) is budgeted
	for i := 0; i < e.N; i++ {
		if i == w {
			continue
		}
		for _, j := range e.Adj[i] {
			if j == x {
				continue
			}
			nj := j
			if j > x {
				nj--
			}
			m.Adj[ri] = append(m.Adj[ri], nj)
		}
		ri++
	}
	return m
}

// DeleteEdge returns a copy of the graph with the edge (w′, x) removed.
//
//lint:allow ctxbudget a straight copy of the edge list; the exponential caller (permanent) is budgeted
func (e *Explicit) DeleteEdge(w, x int) *Explicit {
	m := &Explicit{N: e.N, Adj: make([][]int, e.N)}
	//lint:allow loopbudget straight copy of the edge list; the exponential caller (permanent) is budgeted
	for i := 0; i < e.N; i++ {
		for _, j := range e.Adj[i] {
			if i == w && j == x {
				continue
			}
			m.Adj[i] = append(m.Adj[i], j)
		}
	}
	return m
}

// Complete returns the complete bipartite graph K_{n,n}, the mapping space of
// the ignorant belief function (Section 3.1).
func Complete(n int) *Explicit {
	e := &Explicit{N: n, Adj: make([][]int, n)}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for w := 0; w < n; w++ {
		e.Adj[w] = append([]int(nil), all...)
	}
	return e
}

// RandomExplicit generates a random bipartite graph on n+n vertices where
// each edge appears independently with probability p, always including the
// diagonal (w′, w) so that the identity matching exists (i.e. the graph is
// "compliant"). Used by property tests to cross-validate estimators.
//
//lint:allow ctxbudget test-data generator over n² coin flips, used on tiny n by property tests
func RandomExplicit(n int, p float64, rng *rand.Rand) *Explicit {
	e := &Explicit{N: n, Adj: make([][]int, n)}
	//lint:allow loopbudget test-data generator over n² coin flips on tiny n, per the ctxbudget allow above
	for w := 0; w < n; w++ {
		for x := 0; x < n; x++ {
			if w == x || rng.Float64() < p {
				e.Adj[w] = append(e.Adj[w], x)
			}
		}
	}
	return e
}

// MaximumMatchingCtx computes a maximum matching via the Hopcroft–Karp
// algorithm, returning (size, matchL, matchR) where matchL[w] is the item
// matched to anonymized item w (or -1) and matchR[x] the reverse. It charges
// one phase's worth of edge scans per Hopcroft–Karp phase (there are at most
// O(√n) of them, but each touches every edge).
func (e *Explicit) MaximumMatchingCtx(ctx context.Context) (int, []int, []int, error) {
	const inf = int(^uint(0) >> 1)
	bud := budget.New(ctx, budget.Config{})
	phaseCost := int64(e.NumEdges() + e.N + 1)
	if err := bud.Check(); err != nil {
		return 0, nil, nil, err
	}
	matchL := make([]int, e.N)
	matchR := make([]int, e.N)
	for i := range matchL {
		matchL[i] = -1
		matchR[i] = -1
	}
	dist := make([]int, e.N)
	queue := make([]int, 0, e.N)

	bfs := func() bool {
		queue = queue[:0]
		for w := 0; w < e.N; w++ {
			if matchL[w] == -1 {
				dist[w] = 0
				queue = append(queue, w)
			} else {
				dist[w] = inf
			}
		}
		found := false
		//lint:allow loopbudget the phase loop below charges phaseCost (every edge) per bfs/dfs phase; charging inside would double-count
		for qi := 0; qi < len(queue); qi++ {
			w := queue[qi]
			for _, x := range e.Adj[w] {
				nw := matchR[x]
				if nw == -1 {
					found = true
				} else if dist[nw] == inf {
					dist[nw] = dist[w] + 1
					queue = append(queue, nw)
				}
			}
		}
		return found
	}
	var dfs func(w int) bool
	dfs = func(w int) bool {
		for _, x := range e.Adj[w] {
			nw := matchR[x]
			if nw == -1 || (dist[nw] == dist[w]+1 && dfs(nw)) {
				matchL[w] = x
				matchR[x] = w
				return true
			}
		}
		dist[w] = inf
		return false
	}

	size := 0
	for bfs() {
		if err := bud.Charge(phaseCost); err != nil {
			return 0, nil, nil, fmt.Errorf("bipartite: maximum matching: %w", err)
		}
		for w := 0; w < e.N; w++ {
			if matchL[w] == -1 && dfs(w) {
				size++
			}
		}
	}
	return size, matchL, matchR, nil
}

// HasPerfectMatching reports whether a perfect matching exists. A budget
// error is returned as is, never read as "no".
func (e *Explicit) HasPerfectMatching(ctx context.Context) (bool, error) {
	size, _, _, err := e.MaximumMatchingCtx(ctx)
	return size == e.N && err == nil, err
}
