package bipartite

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

func factorial(n int) *big.Int {
	f := big.NewInt(1)
	for i := 2; i <= n; i++ {
		f.Mul(f, big.NewInt(int64(i)))
	}
	return f
}

func TestCountPerfectMatchingsComplete(t *testing.T) {
	for n := 1; n <= 8; n++ {
		got, err := Complete(n).CountPerfectMatchingsCtx(context.Background())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if want := factorial(n); got.Cmp(want) != 0 {
			t.Errorf("perm(K_%d) = %v, want %v", n, got, want)
		}
	}
}

func TestCountPerfectMatchingsIdentityAndEmpty(t *testing.T) {
	id := MustExplicit(4, [][]int{{0}, {1}, {2}, {3}})
	got, err := id.CountPerfectMatchingsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 1 {
		t.Errorf("perm(identity) = %v, want 1", got)
	}
	empty := MustExplicit(3, [][]int{{}, {}, {}})
	got, err = empty.CountPerfectMatchingsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Errorf("perm(empty) = %v, want 0", got)
	}
}

func TestCountPerfectMatchingsTooLarge(t *testing.T) {
	if _, err := Complete(MaxExactN + 1).CountPerfectMatchingsCtx(context.Background()); err == nil {
		t.Error("want error for n > MaxExactN")
	}
}

func TestCountMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(6)
		e := RandomExplicit(n, rng.Float64(), rng)
		count := 0
		if err := e.EnumeratePerfectMatchingsCtx(context.Background(), 0, func([]int) { count++ }); err != nil {
			t.Fatal(err)
		}
		got, err := e.CountPerfectMatchingsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != int64(count) {
			t.Fatalf("trial %d: DP count %v, enumeration %d", trial, got, count)
		}
	}
}

func TestEnumerationRespectsMaxCount(t *testing.T) {
	if err := Complete(6).EnumeratePerfectMatchingsCtx(context.Background(), 10, func([]int) {}); err == nil {
		t.Error("want error when matchings exceed maxCount")
	}
}

func TestEdgeInclusionComplete(t *testing.T) {
	// On K_n every edge is in a fraction 1/n of matchings: (n-1)! of n!.
	n := 5
	e := Complete(n)
	total, diag, err := e.DiagonalMatchingCountsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if total.Cmp(factorial(n)) != 0 {
		t.Fatalf("perm(K_%d) = %v, want %v", n, total, factorial(n))
	}
	want := factorial(n - 1)
	for w := 0; w < n; w++ {
		if diag[w].Cmp(want) != 0 {
			t.Errorf("diagonal count (%d',%d) = %v, want %v", w, w, diag[w], want)
		}
		for x := 0; x < n; x++ {
			got, err := e.Minor(w, x).CountPerfectMatchingsCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Errorf("matchings with (%d',%d) = %v, want %v", w, x, got, want)
			}
		}
	}
}

func TestEdgeInclusionFigure6b(t *testing.T) {
	// Figure 6(b): {1',2'}x{1,2}, {3',4'}x{3,4}, plus the irrelevant edge
	// (2',3). There are 4 matchings; (2',3) is in none; each diagonal edge is
	// in 2 of them, so the exact expected number of cracks is 4·2/4 = 2.
	e := MustExplicit(4, [][]int{{0, 1}, {0, 1, 2}, {2, 3}, {2, 3}})
	total, diag, err := e.DiagonalMatchingCountsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if total.Int64() != 4 {
		t.Fatalf("matchings = %v, want 4", total)
	}
	irrelevant, err := e.Minor(1, 2).CountPerfectMatchingsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if irrelevant.Sign() != 0 {
		t.Errorf("matchings with (2',3) = %v, want 0 (irrelevant edge)", irrelevant)
	}
	for x, c := range diag {
		if c.Int64() != 2 {
			t.Errorf("matchings with (%d',%d) = %v, want 2", x+1, x+1, c)
		}
	}
}

func TestEdgeInclusionMatchesMinors(t *testing.T) {
	// The matchings that contain the edge (w′, x) are the perfect matchings
	// of Minor(w, x), so Ryser on the minor must count exactly the
	// enumerated matchings through the edge, for every edge.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		e := RandomExplicit(n, 0.5, rng)
		through := make([][]int64, n)
		for w := range through {
			through[w] = make([]int64, n)
		}
		err := e.EnumeratePerfectMatchingsCtx(context.Background(), 0, func(match []int) {
			for w, x := range match {
				through[w][x]++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < n; w++ {
			for x := 0; x < n; x++ {
				if !e.HasEdge(w, x) {
					continue
				}
				mc, err := e.Minor(w, x).CountPerfectMatchingsCtx(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if mc.Int64() != through[w][x] {
					t.Fatalf("trial %d: perm(Minor(%d, %d)) = %v, enumeration counts %d matchings with (%d',%d)",
						trial, w, x, mc, through[w][x], w, x)
				}
			}
		}
	}
}

func TestEdgeInclusionInfeasible(t *testing.T) {
	e := MustExplicit(2, [][]int{{1}, {1}})
	if _, _, err := e.DiagonalMatchingCountsCtx(context.Background()); !errors.Is(err, ErrInfeasible) {
		t.Errorf("DiagonalMatchingCountsCtx = %v, want ErrInfeasible", err)
	}
}

func TestMinorAndDeleteEdge(t *testing.T) {
	e := MustExplicit(3, [][]int{{0, 1}, {1, 2}, {0, 2}})
	m := e.Minor(1, 1)
	// Remaining left {0,2} relabeled {0,1}; right {0,2} relabeled {0,1}.
	if m.N != 2 {
		t.Fatalf("minor size = %d, want 2", m.N)
	}
	if !m.HasEdge(0, 0) || m.HasEdge(0, 1) {
		t.Errorf("minor row 0 = %v, want [0]", m.Adj[0])
	}
	if !m.HasEdge(1, 0) || !m.HasEdge(1, 1) {
		t.Errorf("minor row 1 = %v, want [0 1]", m.Adj[1])
	}
	d := e.DeleteEdge(1, 2)
	if d.HasEdge(1, 2) || !d.HasEdge(1, 1) || d.NumEdges() != e.NumEdges()-1 {
		t.Errorf("DeleteEdge failed: %v", d.Adj)
	}
}

func TestHopcroftKarpAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		e := RandomExplicit(n, rng.Float64()*0.7, rng)
		// RandomExplicit includes the diagonal, so always feasible; remove
		// random edges to create infeasible cases.
		for w := 0; w < n; w++ {
			if rng.Intn(3) == 0 && len(e.Adj[w]) > 0 {
				e.Adj[w] = e.Adj[w][:len(e.Adj[w])-1]
			}
		}
		count, err := e.CountPerfectMatchingsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.HasPerfectMatching(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got != (count.Sign() > 0) {
			t.Fatalf("trial %d: HasPerfectMatching = %v, permanent = %v", trial, got, count)
		}
		size, mL, mR, err := e.MaximumMatchingCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Validate matching consistency.
		seen := 0
		for w := 0; w < n; w++ {
			if mL[w] >= 0 {
				seen++
				if mR[mL[w]] != w || !e.HasEdge(w, mL[w]) {
					t.Fatalf("trial %d: inconsistent matching", trial)
				}
			}
		}
		if seen != size {
			t.Fatalf("trial %d: size %d but %d matched", trial, size, seen)
		}
	}
}

func TestExplicitValidation(t *testing.T) {
	if _, err := NewExplicit(0, nil); err == nil {
		t.Error("NewExplicit(0): want error")
	}
	if _, err := NewExplicit(2, [][]int{{0}}); err == nil {
		t.Error("NewExplicit(wrong rows): want error")
	}
	if _, err := NewExplicit(2, [][]int{{0}, {2}}); err == nil {
		t.Error("NewExplicit(out of range): want error")
	}
}

func TestExplicitRejectsDuplicateEdges(t *testing.T) {
	if _, err := NewExplicit(2, [][]int{{0, 0}, {1}}); err == nil {
		t.Error("duplicate edge: want error")
	}
	// The same target in different rows is fine.
	if _, err := NewExplicit(2, [][]int{{0, 1}, {0, 1}}); err != nil {
		t.Errorf("cross-row repeats are legal: %v", err)
	}
}
