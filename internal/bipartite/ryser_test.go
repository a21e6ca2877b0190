package bipartite

import (
	"context"
	"errors"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/budget"
)

// randomExplicit draws a graph on n+n vertices with edge probability p,
// guaranteeing no duplicate edges by construction.
func randomExplicit(t *testing.T, n int, p float64, rng *rand.Rand) *Explicit {
	t.Helper()
	adj := make([][]int, n)
	for w := 0; w < n; w++ {
		for x := 0; x < n; x++ {
			if rng.Float64() < p {
				adj[w] = append(adj[w], x)
			}
		}
	}
	e, err := NewExplicit(n, adj)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// countPerfectMatchings is the subset-DP permanent, the independent oracle
// the Gray-code Ryser kernel is pinned against: dp[s] counts the matchings
// of the first |s| left vertices onto exactly the right-vertex subset s. It
// materializes a 2^n table of big.Ints, so it suits small n only.
func (e *Explicit) countPerfectMatchings() *big.Int {
	size := 1 << uint(e.N)
	dp := make([]*big.Int, size)
	dp[0] = big.NewInt(1)
	for s := 1; s < size; s++ {
		row := bits.OnesCount(uint(s)) - 1
		acc := new(big.Int)
		for _, x := range e.Adj[row] {
			if bit := 1 << uint(x); s&bit != 0 {
				acc.Add(acc, dp[s^bit])
			}
		}
		dp[s] = acc
	}
	return dp[size-1]
}

func ryserVsDP(t *testing.T, e *Explicit, label string) {
	t.Helper()
	want := e.countPerfectMatchings()
	got, err := e.countPerfectMatchingsRyser(nil, nil)
	if err != nil {
		t.Fatalf("%s: ryser: %v", label, err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("%s: ryser permanent = %v, subset-DP = %v", label, got, want)
	}
}

// TestRyserMatchesDPExhaustive cross-checks the Gray-code kernel against the
// subset-DP on EVERY 0/1 matrix shape for n ≤ 3 — 2^(n²) graphs, including
// all-zero rows, empty graphs and the complete graph.
func TestRyserMatchesDPExhaustive(t *testing.T) {
	for n := 1; n <= 3; n++ {
		shapes := 1 << uint(n*n)
		for s := 0; s < shapes; s++ {
			adj := make([][]int, n)
			for w := 0; w < n; w++ {
				for x := 0; x < n; x++ {
					if s>>(uint(w*n+x))&1 == 1 {
						adj[w] = append(adj[w], x)
					}
				}
			}
			e := MustExplicit(n, adj)
			ryserVsDP(t, e, "exhaustive")
		}
	}
}

// TestRyserMatchesDPShapes covers every n up to 12 with structured shapes
// (complete, identity, cycle, anti-diagonal hole) plus random graphs across
// the density range, per the equivalence-oracle requirement of DESIGN.md §16.
func TestRyserMatchesDPShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for n := 1; n <= 12; n++ {
		complete := make([][]int, n)
		identity := make([][]int, n)
		cycle := make([][]int, n)
		hole := make([][]int, n)
		for w := 0; w < n; w++ {
			identity[w] = []int{w}
			cycle[w] = []int{w, (w + 1) % n}
			for x := 0; x < n; x++ {
				complete[w] = append(complete[w], x)
				if w+x != n-1 {
					hole[w] = append(hole[w], x)
				}
			}
		}
		ryserVsDP(t, MustExplicit(n, complete), "complete")
		ryserVsDP(t, MustExplicit(n, identity), "identity")
		if n >= 2 {
			ryserVsDP(t, MustExplicit(n, cycle), "cycle")
		}
		if n >= 2 {
			ryserVsDP(t, MustExplicit(n, hole), "anti-diagonal hole")
		}
		for trial := 0; trial < 30; trial++ {
			p := 0.1 + 0.85*rng.Float64()
			ryserVsDP(t, randomExplicit(t, n, p, rng), "random")
		}
	}
	// One larger spot check, still within the DP's practical range: complete
	// K_16 has permanent 16!.
	n := 16
	adj := make([][]int, n)
	for w := range adj {
		for x := 0; x < n; x++ {
			adj[w] = append(adj[w], x)
		}
	}
	want := big.NewInt(1)
	for k := int64(2); k <= int64(n); k++ {
		want.Mul(want, big.NewInt(k))
	}
	got, err := MustExplicit(n, adj).CountPerfectMatchingsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("perm(K_%d) = %v, want %d! = %v", n, got, n, want)
	}
}

// TestRyserLargeNUnderBudget exercises the raised MaxExactN range: random
// graphs at n = 20..30 are accepted by CountPerfectMatchingsCtx, and an
// operation limit cuts the 2^n sweep off with a degradable budget error
// instead of running minutes of Gray-code steps.
func TestRyserLargeNUnderBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 20; n <= MaxExactN; n++ {
		e := randomExplicit(t, n, 0.3+0.5*rng.Float64(), rng)
		ctx := budget.WithMaxOps(context.Background(), 1<<16)
		_, err := e.CountPerfectMatchingsCtx(ctx)
		if !errors.Is(err, budget.ErrBudgetExceeded) {
			t.Fatalf("n=%d: err = %v, want ErrBudgetExceeded", n, err)
		}
		if !budget.Degradable(err) {
			t.Fatalf("n=%d: budget error %v is not degradable", n, err)
		}
	}
	// Past the cap the size check fires before any work.
	big := randomExplicit(t, MaxExactN+1, 0.5, rng)
	if _, err := big.CountPerfectMatchingsCtx(context.Background()); err == nil {
		t.Fatalf("n=%d accepted, want size error", MaxExactN+1)
	}
}

// TestRyserFullRunN20 completes one n=20 count and checks it against the
// subset-DP — the largest size where the 2^n big.Int table is still cheap
// enough for a unit test.
func TestRyserFullRunN20(t *testing.T) {
	if testing.Short() {
		t.Skip("2^20 DP table in -short mode")
	}
	rng := rand.New(rand.NewSource(41))
	ryserVsDP(t, randomExplicit(t, 20, 0.25, rng), "n=20")
}

// TestDiagonalMatchingCountsMatchesEdgeInclusion pins the counts behind
// exact expected cracks against the subset DP, by exact big.Int equality:
// total is the DP on the graph, and diag[x] — the matchings that contain
// the diagonal edge (x′, x) — is the DP on Minor(x, x).
func TestDiagonalMatchingCountsMatchesEdgeInclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(9)
		e := randomExplicit(t, n, 0.3+0.6*rng.Float64(), rng)
		want := e.countPerfectMatchings()
		total, diag, err := e.DiagonalMatchingCountsCtx(context.Background())
		if want.Sign() == 0 {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d: the DP counts no matching, diagonal says %v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if total.Cmp(want) != 0 {
			t.Fatalf("trial %d: total %v, subset DP %v", trial, total, want)
		}
		for x := 0; x < n; x++ {
			if !e.HasEdge(x, x) {
				if diag[x] != nil {
					t.Fatalf("trial %d: diag[%d] = %v without the edge (%d′, %d)", trial, x, diag[x], x, x)
				}
				continue
			}
			if w := e.Minor(x, x).countPerfectMatchings(); diag[x].Cmp(w) != 0 {
				t.Fatalf("trial %d: diag[%d] = %v, subset DP on Minor(%d, %d) %v", trial, x, diag[x], x, x, w)
			}
		}
	}
}

// TestRyserWarmAccumulatorZeroAllocs pins the accumulator core at zero
// allocations with warm scratch: the whole Gray-code sweep — row-sum
// updates, 192-bit products, 256-bit signed accumulation — runs in
// fixed-width words, with big.Int confined to the conversion boundary. This
// is the bipartite-side row of the allocation-regression suite started in
// internal/matching/alloc_test.go.
func TestRyserWarmAccumulatorZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := randomExplicit(t, 14, 0.6, rng)
	sc := &ryserScratch{}
	if _, err := e.ryserWords(nil, sc); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.ryserWords(nil, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ryserWords allocates %v per run, want 0", allocs)
	}
}
