package bipartite

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/dataset"
)

func TestExplicitPropagateStaircase(t *testing.T) {
	// Figure 6(a) as an explicit graph: full cascade.
	e := MustExplicit(4, [][]int{{0, 1, 2, 3}, {1, 2, 3}, {2, 3}, {3}})
	p, err := e.PropagateCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Forced) != 4 || p.ForcedCracks() != 4 {
		t.Fatalf("forced %d (cracks %d), want full cascade of 4", len(p.Forced), p.ForcedCracks())
	}
}

func TestExplicitPropagateNoOp(t *testing.T) {
	p, err := Complete(4).PropagateCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Forced) != 0 {
		t.Errorf("complete graph forced %d edges", len(p.Forced))
	}
	for x, d := range p.Outdeg {
		if d != 4 {
			t.Errorf("Outdeg[%d] = %d, want 4", x, d)
		}
	}
}

func TestExplicitPropagateInfeasible(t *testing.T) {
	// Two left vertices share a single right vertex.
	e := MustExplicit(2, [][]int{{1}, {1}})
	if _, err := e.PropagateCtx(context.Background()); err != ErrInfeasible {
		t.Errorf("Propagate = %v, want ErrInfeasible", err)
	}
	// A left vertex with no edges at all.
	e2 := MustExplicit(2, [][]int{{}, {0, 1}})
	if _, err := e2.PropagateCtx(context.Background()); err != ErrInfeasible {
		t.Errorf("empty row: Propagate = %v, want ErrInfeasible", err)
	}
}

func TestExplicitPropagateForcedEdgesInEveryMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tested := 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(6)
		e := RandomExplicit(n, rng.Float64()*0.6, rng)
		// Remove some edges to create sparse/infeasible cases.
		for w := 0; w < n; w++ {
			if rng.Intn(3) == 0 && len(e.Adj[w]) > 1 {
				e.Adj[w] = e.Adj[w][:len(e.Adj[w])-1]
			}
		}
		var matchings [][]int
		if err := e.EnumeratePerfectMatchingsCtx(context.Background(), 100000, func(m []int) {
			matchings = append(matchings, append([]int(nil), m...))
		}); err != nil {
			t.Fatal(err)
		}
		p, err := e.PropagateCtx(context.Background())
		if len(matchings) == 0 {
			// Infeasible graph: propagation may or may not detect it, but a
			// successful run must not force non-edges.
			if err == nil {
				for _, fp := range p.Forced {
					if !e.HasEdge(fp.Anon, fp.Item) {
						t.Fatalf("trial %d: forced non-edge %+v", trial, fp)
					}
				}
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: Propagate failed on feasible graph: %v", trial, err)
		}
		tested++
		for _, fp := range p.Forced {
			for _, m := range matchings {
				if m[fp.Anon] != fp.Item {
					t.Fatalf("trial %d: forced %+v absent from matching %v", trial, fp, m)
				}
			}
		}
		// Outdeg must never undercount observed partners.
		partners := make([]map[int]bool, n)
		for x := range partners {
			partners[x] = map[int]bool{}
		}
		for _, m := range matchings {
			for w, x := range m {
				partners[x][w] = true
			}
		}
		for x := 0; x < n; x++ {
			if p.Outdeg[x] < len(partners[x]) {
				t.Fatalf("trial %d: Outdeg[%d]=%d < %d partners", trial, x, p.Outdeg[x], len(partners[x]))
			}
		}
	}
	if tested < 80 {
		t.Errorf("only %d feasible graphs exercised", tested)
	}
}

func TestExplicitPropagateMatchesCompact(t *testing.T) {
	// On interval-structured graphs both propagation implementations must
	// force the same pairs and report the same residual degrees.
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 100; trial++ {
		g := randomCompactGraph(t, rng, 2+rng.Intn(8))
		pc, errC := g.PropagateCtx(context.Background())
		pe, errE := g.ToExplicit().PropagateCtx(context.Background())
		if (errC == nil) != (errE == nil) {
			// The two detectors differ in completeness; both are sound, so
			// only flag the case where one *succeeds* and forces a non-edge.
			continue
		}
		if errC != nil {
			continue
		}
		if len(pc.Forced) != len(pe.Forced) {
			t.Fatalf("trial %d: compact forced %d, explicit %d", trial, len(pc.Forced), len(pe.Forced))
		}
		for x := range pc.Outdeg {
			if pc.Outdeg[x] != pe.Outdeg[x] {
				t.Fatalf("trial %d: Outdeg[%d] compact %d vs explicit %d", trial, x, pc.Outdeg[x], pe.Outdeg[x])
			}
		}
	}
}

// randomCompactGraph builds a compact graph from random counts and random
// compliant intervals.
func randomCompactGraph(t testing.TB, rng *rand.Rand, n int) *Graph {
	t.Helper()
	m := 10 + rng.Intn(30)
	counts := make([]int, n)
	for i := range counts {
		counts[i] = rng.Intn(m + 1)
	}
	ft, err := dataset.NewTable(m, counts)
	if err != nil {
		t.Fatal(err)
	}
	bf := belief.RandomCompliant(ft.Frequencies(), rng.Float64()*0.3, rng)
	g, err := Build(bf, dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	return g
}
