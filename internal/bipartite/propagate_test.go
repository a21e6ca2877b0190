package bipartite

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/dataset"
)

// staircase builds the cascade example of Figure 6(a) generalized to n items:
// distinct frequencies f_1 < ... < f_n, anonymized item i′ at f_i, and item
// j's belief interval [f_1, f_j], so that O_j = j before propagation and
// every edge is forced after it.
func staircase(t testing.TB, n int) *Graph {
	t.Helper()
	m := 2 * n
	counts := make([]int, n)
	for i := range counts {
		counts[i] = i + 1
	}
	ft, err := dataset.NewTable(m, counts)
	if err != nil {
		t.Fatal(err)
	}
	freqs := ft.Frequencies()
	ivs := make([]belief.Interval, n)
	for x := range ivs {
		ivs[x] = belief.Interval{Lo: freqs[0], Hi: freqs[x]}
	}
	g, err := Build(belief.MustNew(ivs), dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPropagateFigure6a(t *testing.T) {
	g := staircase(t, 4)
	wantDeg := []int{1, 2, 3, 4}
	for x, w := range wantDeg {
		if got := g.Outdegree(x); got != w {
			t.Fatalf("pre-propagation Outdegree(%d) = %d, want %d", x, got, w)
		}
	}
	p, err := g.PropagateCtx(context.Background())
	if err != nil {
		t.Fatalf("Propagate: %v", err)
	}
	if len(p.Forced) != 4 {
		t.Fatalf("forced %d edges, want 4", len(p.Forced))
	}
	if p.ForcedCracks() != 4 {
		t.Errorf("ForcedCracks = %d, want 4 (the paper: the number of cracks is 4)", p.ForcedCracks())
	}
	for x, d := range p.Outdeg {
		if d != 1 {
			t.Errorf("post-propagation Outdeg[%d] = %d, want 1", x, d)
		}
	}
}

func TestPropagateCascadeDepth(t *testing.T) {
	// The n-item staircase needs a full cascade; make sure a long one works.
	g := staircase(t, 200)
	p, err := g.PropagateCtx(context.Background())
	if err != nil {
		t.Fatalf("Propagate: %v", err)
	}
	if p.ForcedCracks() != 200 {
		t.Errorf("ForcedCracks = %d, want 200", p.ForcedCracks())
	}
}

func TestPropagateNoOpOnPointValued(t *testing.T) {
	// Point-valued groups of size >= 2 force nothing.
	ft, err := dataset.NewTable(10, []int{5, 5, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(belief.PointValued(ft.Frequencies()), dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.PropagateCtx(context.Background())
	if err != nil {
		t.Fatalf("Propagate: %v", err)
	}
	if len(p.Forced) != 0 {
		t.Errorf("forced %d edges, want 0", len(p.Forced))
	}
	for x, d := range p.Outdeg {
		if d != 2 {
			t.Errorf("Outdeg[%d] = %d, want 2", x, d)
		}
	}
}

func TestPropagateSingletons(t *testing.T) {
	// Singleton groups with point beliefs are forced immediately (the hacker
	// "comes up with the cracks directly", Section 3.2).
	ft, err := dataset.NewTable(10, []int{5, 4, 5, 5, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(belief.PointValued(ft.Frequencies()), dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.PropagateCtx(context.Background())
	if err != nil {
		t.Fatalf("Propagate: %v", err)
	}
	if len(p.Forced) != 2 || p.ForcedCracks() != 2 {
		t.Errorf("forced %d (cracks %d), want 2 forced cracks (items 2' and 5')", len(p.Forced), p.ForcedCracks())
	}
}

// TestPropagateForcedEdgesAreInEveryMatching cross-validates propagation
// against exhaustive enumeration on random small graphs: every forced pair
// must appear in every perfect matching, and post-propagation outdegrees must
// equal the true number of distinct partners across matchings' support.
func TestPropagateForcedEdgesAreInEveryMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tested := 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(6)
		m := 6 + rng.Intn(10)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft, err := dataset.NewTable(m, counts)
		if err != nil {
			t.Fatal(err)
		}
		ivs := make([]belief.Interval, n)
		freqs := ft.Frequencies()
		for i := range ivs {
			// Mix of compliant and slightly-off intervals.
			base := freqs[i]
			if rng.Intn(4) == 0 {
				base = rng.Float64()
			}
			w := rng.Float64() * 0.4
			ivs[i] = belief.Interval{Lo: base - w, Hi: base + w}.Clamp()
		}
		g, err := Build(belief.MustNew(ivs), dataset.GroupItems(ft))
		if err != nil {
			t.Fatal(err)
		}
		e := g.ToExplicit()
		has, err := e.HasPerfectMatching(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !has {
			// Propagation must not claim success with forced edges that
			// complete a matching; it may or may not detect infeasibility
			// (it is a sound but incomplete test), so just require that IF
			// it succeeds, it never forces a non-edge.
			if p, err := g.PropagateCtx(context.Background()); err == nil {
				for _, fp := range p.Forced {
					if !g.HasEdge(fp.Anon, fp.Item) {
						t.Fatalf("trial %d: forced non-edge %+v", trial, fp)
					}
				}
			}
			continue
		}
		p, err := g.PropagateCtx(context.Background())
		if err != nil {
			t.Fatalf("trial %d: Propagate failed on feasible graph: %v", trial, err)
		}
		tested++
		// Collect all perfect matchings.
		var matchings [][]int
		if err := e.EnumeratePerfectMatchingsCtx(context.Background(), 100000, func(mt []int) {
			matchings = append(matchings, append([]int(nil), mt...))
		}); err != nil {
			t.Fatal(err)
		}
		for _, fp := range p.Forced {
			for _, mt := range matchings {
				if mt[fp.Anon] != fp.Item {
					t.Fatalf("trial %d: forced edge %+v absent from matching %v", trial, fp, mt)
				}
			}
		}
		// Post-propagation outdegree must never undercount the number of
		// distinct anonymized partners item x takes across all matchings.
		partners := make([]map[int]bool, n)
		for x := range partners {
			partners[x] = map[int]bool{}
		}
		for _, mt := range matchings {
			for w, x := range mt {
				partners[x][w] = true
			}
		}
		for x := 0; x < n; x++ {
			if p.Outdeg[x] < len(partners[x]) {
				t.Fatalf("trial %d: Outdeg[%d] = %d < %d distinct partners",
					trial, x, p.Outdeg[x], len(partners[x]))
			}
		}
	}
	if tested < 50 {
		t.Errorf("only %d feasible graphs exercised; want >= 50", tested)
	}
}

func TestPropagateInfeasibleGroup(t *testing.T) {
	// Two items share a single candidate group of size 1 elsewhere:
	// counts (2,2,5) with item beliefs: items 0,1 -> {f=0.5 group}, item 2
	// ignorant. Anon group at 0.2 has two members but only item 2 covers it:
	// cover(0.2-group)=1 < size 2 -> infeasible.
	ft, err := dataset.NewTable(10, []int{2, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	bf := belief.MustNew([]belief.Interval{
		{Lo: 0.5, Hi: 0.5}, {Lo: 0.5, Hi: 0.5}, {Lo: 0, Hi: 1},
	})
	g, err := Build(bf, dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := g.Feasible(context.Background()); ok || err != nil {
		t.Fatalf("Feasible = %v, %v; graph should be infeasible", ok, err)
	}
	if _, err := g.PropagateCtx(context.Background()); err != ErrInfeasible {
		t.Errorf("Propagate = %v, want ErrInfeasible", err)
	}
}
