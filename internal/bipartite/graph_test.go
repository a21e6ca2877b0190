package bipartite

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/belief"
	"repro/internal/dataset"
)

// bigMartTable is the support-count table of the paper's BigMart example
// (Figure 1): frequencies (.5,.4,.5,.5,.3,.5) over 10 transactions, items
// 1..6 mapped to ids 0..5.
func bigMartTable(t testing.TB) *dataset.FrequencyTable {
	t.Helper()
	ft, err := dataset.NewTable(10, []int{5, 4, 5, 5, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// beliefH is the belief function h of Figure 2.
func beliefH() *belief.Function {
	return belief.MustNew([]belief.Interval{
		{Lo: 0, Hi: 1}, {Lo: 0.4, Hi: 0.5}, {Lo: 0.5, Hi: 0.5},
		{Lo: 0.4, Hi: 0.6}, {Lo: 0.1, Hi: 0.4}, {Lo: 0.5, Hi: 0.5},
	})
}

func buildGraph(t testing.TB, bf *belief.Function, ft *dataset.FrequencyTable) *Graph {
	t.Helper()
	g, err := Build(bf, dataset.GroupItems(ft))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildBigMartH(t *testing.T) {
	g := buildGraph(t, beliefH(), bigMartTable(t))
	if g.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d, want 3 (freqs .3,.4,.5)", g.NumGroups())
	}
	// Paper (Section 2.3): 1' maps to {1,2,3,4,6}; 2' to {1,2,4,5};
	// 5' to... h(1)=[0,1] and h(5)=[0.1,0.4] contain 0.3 -> {1,5}.
	// In 0-based ids: anon0 -> {0,1,2,3,5}; anon1 -> {0,1,3,4}; anon4 -> {0,4}.
	wantEdges := map[int][]int{
		0: {0, 1, 2, 3, 5},
		1: {0, 1, 3, 4},
		4: {0, 4},
	}
	// Anon items with frequency 0.5 all behave like anon0.
	for _, w := range []int{2, 3, 5} {
		wantEdges[w] = wantEdges[0]
	}
	for w, want := range wantEdges {
		for x := 0; x < 6; x++ {
			inWant := false
			for _, y := range want {
				if y == x {
					inWant = true
				}
			}
			if got := g.HasEdge(w, x); got != inWant {
				t.Errorf("HasEdge(%d',%d) = %v, want %v", w, x, got, inWant)
			}
		}
	}
	// Outdegrees: item0 [0,1] -> 6; item1 [.4,.5] -> 5; item2 {.5} -> 4;
	// item3 [.4,.6] -> 5; item4 [.1,.4] -> 2; item5 {.5} -> 4.
	wantDeg := []int{6, 5, 4, 5, 2, 4}
	got := g.Outdegrees()
	for x, w := range wantDeg {
		if got[x] != w {
			t.Errorf("Outdegree(%d) = %d, want %d", x, got[x], w)
		}
	}
	if g.NumEdges() != 6+5+4+5+2+4 {
		t.Errorf("NumEdges = %d, want 26", g.NumEdges())
	}
	if !g.Compliant(4) || g.CompliantCount() != 6 {
		t.Errorf("h should be compliant on all items; count = %d", g.CompliantCount())
	}
}

func TestBuildIgnorantAndPointValued(t *testing.T) {
	ft := bigMartTable(t)
	freqs := ft.Frequencies()

	ig := buildGraph(t, belief.Ignorant(6), ft)
	for x := 0; x < 6; x++ {
		if ig.Outdegree(x) != 6 {
			t.Errorf("ignorant Outdegree(%d) = %d, want 6", x, ig.Outdegree(x))
		}
	}

	pv := buildGraph(t, belief.PointValued(freqs), ft)
	// Groups: {4} size 1 (f=.3), {1} size 1 (f=.4), {0,2,3,5} size 4 (f=.5).
	wantDeg := []int{4, 1, 4, 4, 1, 4}
	for x, w := range wantDeg {
		if pv.Outdegree(x) != w {
			t.Errorf("point-valued Outdegree(%d) = %d, want %d", x, pv.Outdegree(x), w)
		}
	}
}

func TestBuildDomainMismatch(t *testing.T) {
	ft := bigMartTable(t)
	if _, err := Build(belief.Ignorant(5), dataset.GroupItems(ft)); err == nil {
		t.Error("Build with mismatched domains: want error")
	}
}

func TestNonCompliantEmptyRange(t *testing.T) {
	ft := bigMartTable(t)
	// Item 0's interval misses every observed frequency.
	bf := belief.MustNew([]belief.Interval{
		{Lo: 0.8, Hi: 0.9}, {Lo: 0, Hi: 1}, {Lo: 0, Hi: 1},
		{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}, {Lo: 0, Hi: 1},
	})
	g := buildGraph(t, bf, ft)
	if g.Outdegree(0) != 0 {
		t.Errorf("Outdegree(0) = %d, want 0 (interval misses all groups)", g.Outdegree(0))
	}
	if g.Compliant(0) {
		t.Error("item 0 should be non-compliant")
	}
	if ok, err := g.Feasible(context.Background()); ok || err != nil {
		t.Errorf("Feasible = %v, %v; a graph with a degree-0 item cannot have a perfect matching", ok, err)
	}
	if _, err := g.PropagateCtx(context.Background()); err != ErrInfeasible {
		t.Errorf("Propagate = %v, want ErrInfeasible", err)
	}
}

// TestGroupRangeBoundaries pins the closed-interval semantics of groupRange:
// a frequency group is covered exactly when belief.Interval.Contains admits
// its frequency — both interval endpoints included, with Epsilon slack on
// each side. The Hi+ε case is the historical off-by-ε: SearchFloat64s on the
// upper bound excluded a frequency lying exactly at Hi+ε while Contains
// included it, so HasEdge and Contains disagreed there.
func TestGroupRangeBoundaries(t *testing.T) {
	// Boundary frequencies are computed with runtime float64 arithmetic on
	// variables, exactly as groupRange and Contains compute them — Go folds
	// untyped-constant expressions at infinite precision, which can land one
	// ulp away from the runtime value and would test the wrong boundary.
	eps := float64(belief.Epsilon)
	iv := belief.Interval{Lo: 0.4, Hi: 0.6}
	cases := []struct {
		name string
		f    float64
	}{
		{"at Lo", iv.Lo},
		{"at Hi", iv.Hi},
		{"inside", 0.5},
		{"at Lo-eps", iv.Lo - eps},
		{"at Hi+eps", iv.Hi + eps},
		{"at Lo-2eps", iv.Lo - 2*eps},
		{"at Hi+2eps", iv.Hi + 2*eps},
		{"well below", 0.1},
		{"well above", 0.9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			freqs := []float64{0.1, tc.f, 0.9}
			sort.Float64s(freqs)
			i := sort.SearchFloat64s(freqs, tc.f)
			lo, hi := groupRange(freqs, iv)
			got := lo <= i && i <= hi
			want := iv.Contains(tc.f)
			if got != want {
				t.Errorf("groupRange covers f=%v: %v, Contains: %v", tc.f, got, want)
			}
		})
	}
	// Explicit expectations, independent of Contains: exact endpoints and the
	// ±ε slack are in; anything beyond 2ε is out.
	for _, in := range []float64{iv.Lo, iv.Hi, 0.5, iv.Lo - eps, iv.Hi + eps} {
		lo, hi := groupRange([]float64{in}, iv)
		if lo > hi {
			t.Errorf("groupRange: frequency %v should be covered by %v", in, iv)
		}
	}
	for _, out := range []float64{iv.Lo - 2*eps, iv.Hi + 2*eps, 0, 1} {
		lo, hi := groupRange([]float64{out}, iv)
		if lo <= hi {
			t.Errorf("groupRange: frequency %v should not be covered by %v", out, iv)
		}
	}
}

// TestHasEdgeMatchesContains is the randomized agreement property behind
// TestGroupRangeBoundaries: for every pair (w, x) of a built graph,
// HasEdge(w, x) must equal bf.Contains(x, freq(w)), including for intervals
// whose bounds sit exactly ±ε or ±2ε off an observed frequency.
func TestHasEdgeMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		m := 8 + rng.Intn(12)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft, err := dataset.NewTable(m, counts)
		if err != nil {
			t.Fatal(err)
		}
		freqs := ft.Frequencies()
		ivs := make([]belief.Interval, n)
		for i := range ivs {
			// Mix plain random intervals with adversarial ones whose bounds
			// land exactly on an observed frequency shifted by 0, ±ε or ±2ε.
			switch rng.Intn(3) {
			case 0:
				a, b := rng.Float64(), rng.Float64()
				if a > b {
					a, b = b, a
				}
				ivs[i] = belief.Interval{Lo: a, Hi: b}
			default:
				f := freqs[rng.Intn(n)]
				shifts := []float64{0, belief.Epsilon, -belief.Epsilon, 2 * belief.Epsilon, -2 * belief.Epsilon}
				lo := f - shifts[rng.Intn(len(shifts))]
				hi := f + shifts[rng.Intn(len(shifts))]
				// Clamp each bound into [0,1] before ordering: Interval.Clamp
				// alone would invert a pair like lo=hi=1+2ε into [1+2ε, 1].
				lo = math.Min(1, math.Max(0, lo))
				hi = math.Min(1, math.Max(0, hi))
				if lo > hi {
					lo, hi = hi, lo
				}
				ivs[i] = belief.Interval{Lo: lo, Hi: hi}
			}
		}
		bf := belief.MustNew(ivs)
		g := buildGraph(t, bf, ft)
		for x := 0; x < n; x++ {
			for w := 0; w < n; w++ {
				if got, want := g.HasEdge(w, x), bf.Contains(x, freqs[w]); got != want {
					t.Fatalf("trial %d: HasEdge(%d,%d)=%v but Contains(%d, %v)=%v (interval %v)",
						trial, w, x, got, x, freqs[w], want, bf.Interval(x))
				}
			}
		}
	}
}

func TestToExplicitMatchesCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		m := 10 + rng.Intn(20)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft, err := dataset.NewTable(m, counts)
		if err != nil {
			t.Fatal(err)
		}
		bf := belief.RandomCompliant(ft.Frequencies(), 0.3, rng)
		g := buildGraph(t, bf, ft)
		e := g.ToExplicit()
		for w := 0; w < n; w++ {
			for x := 0; x < n; x++ {
				if g.HasEdge(w, x) != e.HasEdge(w, x) {
					t.Fatalf("trial %d: edge (%d,%d) mismatch compact=%v explicit=%v",
						trial, w, x, g.HasEdge(w, x), e.HasEdge(w, x))
				}
			}
		}
		deg := g.Outdegrees()
		for x := 0; x < n; x++ {
			c := 0
			for w := 0; w < n; w++ {
				if e.HasEdge(w, x) {
					c++
				}
			}
			if deg[x] != c {
				t.Fatalf("trial %d: Outdegree(%d) = %d, explicit says %d", trial, x, deg[x], c)
			}
		}
		if g.NumEdges() != e.NumEdges() {
			t.Fatalf("trial %d: NumEdges mismatch", trial)
		}
	}
}

func TestIdentityMatching(t *testing.T) {
	ft := bigMartTable(t)
	g := buildGraph(t, beliefH(), ft)
	m, err := g.IdentityMatching()
	if err != nil {
		t.Fatalf("IdentityMatching on compliant graph: %v", err)
	}
	for x, w := range m {
		if w != x {
			t.Errorf("identity matching maps %d to %d", x, w)
		}
	}
	// Non-compliant function: no identity matching.
	bf := belief.MustNew([]belief.Interval{
		{Lo: 0.8, Hi: 0.9}, {Lo: 0, Hi: 1}, {Lo: 0, Hi: 1},
		{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}, {Lo: 0, Hi: 1},
	})
	g2 := buildGraph(t, bf, ft)
	if _, err := g2.IdentityMatching(); err == nil {
		t.Error("IdentityMatching on non-compliant graph: want error")
	}
}

func TestPerfectMatchingGreedyAgainstHopcroftKarp(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	feasibleSeen, infeasibleSeen := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(8)
		m := 8 + rng.Intn(12)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft, err := dataset.NewTable(m, counts)
		if err != nil {
			t.Fatal(err)
		}
		// Random, possibly non-compliant intervals.
		ivs := make([]belief.Interval, n)
		for i := range ivs {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			ivs[i] = belief.Interval{Lo: a, Hi: b}
		}
		g := buildGraph(t, belief.MustNew(ivs), ft)
		match, err := g.PerfectMatchingCtx(context.Background())
		want, herr := g.ToExplicit().HasPerfectMatching(context.Background())
		if herr != nil {
			t.Fatal(herr)
		}
		if (err == nil) != want {
			t.Fatalf("trial %d: greedy feasibility %v, Hopcroft-Karp %v", trial, err == nil, want)
		}
		if err == nil {
			feasibleSeen++
			used := make([]bool, n)
			for x, w := range match {
				if w < 0 || w >= n || used[w] {
					t.Fatalf("trial %d: invalid matching %v", trial, match)
				}
				used[w] = true
				if !g.HasEdge(w, x) {
					t.Fatalf("trial %d: matching uses non-edge (%d,%d)", trial, w, x)
				}
			}
		} else {
			infeasibleSeen++
		}
	}
	if feasibleSeen == 0 || infeasibleSeen == 0 {
		t.Errorf("test did not cover both outcomes: feasible=%d infeasible=%d", feasibleSeen, infeasibleSeen)
	}
}

// TestCandidateLayoutMatchesHasEdge is the flat-kernel layout oracle: on
// random tables and belief functions, item x's candidate window must contain
// exactly the anonymized items w with HasEdge(w, x), in group order, and its
// span must equal the outdegree. The sampler's O(1) candidate draw is
// correct iff this holds.
func TestCandidateLayoutMatchesHasEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		m := 8 + rng.Intn(12)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft, err := dataset.NewTable(m, counts)
		if err != nil {
			t.Fatal(err)
		}
		bf := belief.RandomCompliant(ft.Frequencies(), 0.3, rng)
		g := buildGraph(t, bf, ft)
		flat, _, span := g.CandidateLayout()
		if len(flat) != g.Items() {
			t.Fatalf("trial %d: flat has %d entries, want n=%d", trial, len(flat), g.Items())
		}
		for x := 0; x < g.Items(); x++ {
			cands := g.Candidates(x)
			if len(cands) != span[x] || span[x] != g.Outdegree(x) {
				t.Fatalf("trial %d item %d: |candidates| = %d, span = %d, outdegree = %d",
					trial, x, len(cands), span[x], g.Outdegree(x))
			}
			inWindow := map[int]bool{}
			lastGroup := -1
			for _, w := range cands {
				if !g.HasEdge(w, x) {
					t.Fatalf("trial %d: candidate %d of item %d is not an edge", trial, w, x)
				}
				if gw := g.ItemGroup[w]; gw < lastGroup {
					t.Fatalf("trial %d item %d: candidates not in group order", trial, x)
				} else {
					lastGroup = gw
				}
				inWindow[w] = true
			}
			for w := 0; w < g.Items(); w++ {
				if g.HasEdge(w, x) && !inWindow[w] {
					t.Fatalf("trial %d: edge (%d,%d) missing from candidate window", trial, w, x)
				}
			}
		}
	}
}

// TestCandidatesNonCompliantEmpty pins the zero-span representation of items
// with no consistent counterpart.
func TestCandidatesNonCompliantEmpty(t *testing.T) {
	ft := bigMartTable(t)
	ivs := make([]belief.Interval, 6)
	for i := range ivs {
		ivs[i] = belief.Interval{Lo: 0.4, Hi: 0.5}
	}
	ivs[2] = belief.Interval{Lo: 0.9, Hi: 0.95} // no observed frequency up there
	g := buildGraph(t, belief.MustNew(ivs), ft)
	if len(g.Candidates(2)) != 0 {
		t.Errorf("non-compliant item has %d candidates, want 0", len(g.Candidates(2)))
	}
	if g.Outdegree(2) != 0 {
		t.Errorf("Outdegree = %d, want 0", g.Outdegree(2))
	}
}
