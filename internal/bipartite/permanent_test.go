package bipartite

import (
	"context"
	"math"
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
	// On K_n every edge is in a fraction 1/n of matchings.
	n := 5
	probs, err := Complete(n).EdgeInclusionProbabilityCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < n; w++ {
		for x := 0; x < n; x++ {
			if math.Abs(probs[w][x]-1.0/float64(n)) > 1e-12 {
				t.Errorf("P(%d,%d) = %v, want %v", w, x, probs[w][x], 1.0/float64(n))
			}
		}
	}
}

func TestEdgeInclusionFigure6b(t *testing.T) {
	// Figure 6(b): {1',2'}x{1,2}, {3',4'}x{3,4}, plus the irrelevant edge
	// (2',3). There are 4 matchings; (2',3) is in none; diagonal edges are in
	// half each, so the exact expected number of cracks is 2.
	e := MustExplicit(4, [][]int{{0, 1}, {0, 1, 2}, {2, 3}, {2, 3}})
	total, err := e.CountPerfectMatchingsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if total.Int64() != 4 {
		t.Fatalf("matchings = %v, want 4", total)
	}
	probs, err := e.EdgeInclusionProbabilityCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if probs[1][2] != 0 {
		t.Errorf("P(2',3) = %v, want 0 (irrelevant edge)", probs[1][2])
	}
	exp := 0.0
	for x := 0; x < 4; x++ {
		exp += probs[x][x]
	}
	if math.Abs(exp-2.0) > 1e-12 {
		t.Errorf("exact E(X) = %v, want 2", exp)
	}
}

func TestEdgeInclusionMatchesMinors(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		e := RandomExplicit(n, 0.5, rng)
		total, err := e.CountPerfectMatchingsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if total.Sign() == 0 {
			continue
		}
		probs, err := e.EdgeInclusionProbabilityCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < n; w++ {
			for x := 0; x < n; x++ {
				var want float64
				if e.HasEdge(w, x) {
					mc, err := e.Minor(w, x).CountPerfectMatchingsCtx(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					f, _ := new(big.Float).Quo(new(big.Float).SetInt(mc), new(big.Float).SetInt(total)).Float64()
					want = f
				}
				if math.Abs(probs[w][x]-want) > 1e-9 {
					t.Fatalf("trial %d: P(%d,%d) = %v, minors give %v", trial, w, x, probs[w][x], want)
				}
			}
		}
	}
}

func TestEdgeInclusionInfeasible(t *testing.T) {
	e := MustExplicit(2, [][]int{{1}, {1}})
	if _, err := e.EdgeInclusionProbabilityCtx(context.Background()); err != ErrInfeasible {
		t.Errorf("EdgeInclusionProbabilityCtx = %v, want ErrInfeasible", err)
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

func TestRasmussenUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 5; trial++ {
		n := 3 + rng.Intn(4)
		e := RandomExplicit(n, 0.6, rng)
		exact, err := e.CountPerfectMatchingsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := new(big.Float).SetInt(exact).Float64()
		got, err := RasmussenEstimateCtx(context.Background(), e, 60000, rng)
		if err != nil {
			t.Fatal(err)
		}
		tol := 0.15*want + 0.5
		if math.Abs(got-want) > tol {
			t.Errorf("trial %d (n=%d): Rasmussen = %v, exact = %v", trial, n, got, want)
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
