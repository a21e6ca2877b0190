package matching

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/dataset"
)

func buildGraph(t testing.TB, bf *belief.Function, ft *dataset.FrequencyTable) *bipartite.Graph {
	t.Helper()
	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustTable(t testing.TB, m int, counts []int) *dataset.FrequencyTable {
	t.Helper()
	ft, err := dataset.NewTable(m, counts)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestSamplerIgnorantMatchesLemma1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ft := mustTable(t, 20, []int{2, 5, 9, 14, 17, 19, 3, 11})
	g := buildGraph(t, belief.Ignorant(8), ft)
	est, err := EstimateCracksCtx(context.Background(), g, Config{Samples: 2000, Runs: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-1) > 0.1 {
		t.Errorf("simulated E(X) = %v ± %v, want 1 (Lemma 1)", est.Mean, est.StdDev)
	}
}

func TestSamplerPointValuedMatchesLemma3(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Groups: sizes 3, 2, 3 -> g = 3.
	ft := mustTable(t, 20, []int{4, 4, 4, 9, 9, 15, 15, 15})
	g := buildGraph(t, belief.PointValued(ft.Frequencies()), ft)
	est, err := EstimateCracksCtx(context.Background(), g, Config{Samples: 2000, Runs: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-3) > 0.15 {
		t.Errorf("simulated E(X) = %v ± %v, want 3 (Lemma 3)", est.Mean, est.StdDev)
	}
}

func TestSamplerFigure4aChain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ft, bf, err := core.Figure4aChain().Realize(10, []int{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, bf, ft)
	est, err := EstimateCracksCtx(context.Background(), g, Config{Samples: 3000, Runs: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := 74.0 / 45.0
	if math.Abs(est.Mean-want) > 0.1 {
		t.Errorf("simulated E(X) = %v ± %v, want 74/45 = %v", est.Mean, est.StdDev, want)
	}
}

// TestSamplerMatchesExactOnRandomGraphs is the key uniformity check: on
// random compliant interval graphs small enough for exact computation, the
// MCMC estimate must agree with the permanent-based expectation. This
// justifies the scaled-down iteration counts (DESIGN.md).
func TestSamplerMatchesExactOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(5)
		m := 20
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft := mustTable(t, m, counts)
		bf := belief.RandomCompliant(ft.Frequencies(), 0.2, rng)
		g := buildGraph(t, bf, ft)
		exact, err := core.ExactExpectedCracksCtx(context.Background(), g.ToExplicit())
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateCracksCtx(context.Background(), g, Config{Samples: 3000, Runs: 3}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Mean-exact) > math.Max(0.15, 4*est.StdDev+0.05) {
			t.Errorf("trial %d (n=%d): simulated %v ± %v, exact %v",
				trial, n, est.Mean, est.StdDev, exact)
		}
	}
}

func TestSamplerAlphaCompliantSeedsGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 12
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 2 * (i + 1)
	}
	ft := mustTable(t, 40, counts)
	base := belief.UniformWidth(ft.Frequencies(), 0.06)
	pert, _, err := belief.AlphaCompliant(base, ft.Frequencies(), 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, pert, ft)
	if ok, err := g.Feasible(context.Background()); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Skip("perturbed graph infeasible for this seed; nothing to sample")
	}
	if _, err := g.IdentityMatching(); err == nil {
		t.Fatal("test needs a graph without the identity matching")
	}
	est, err := EstimateCracksCtx(context.Background(), g, Config{Samples: 1500, Runs: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.ExactExpectedCracksCtx(context.Background(), g.ToExplicit())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-exact) > math.Max(0.2, 4*est.StdDev+0.05) {
		t.Errorf("simulated %v ± %v, exact %v", est.Mean, est.StdDev, exact)
	}
}

func TestSamplerInfeasible(t *testing.T) {
	ft := mustTable(t, 10, []int{2, 6})
	bf := belief.MustNew([]belief.Interval{{Lo: 0.6, Hi: 0.6}, {Lo: 0.6, Hi: 0.6}})
	g := buildGraph(t, bf, ft)
	if _, err := NewSampler(context.Background(), g, rand.New(rand.NewSource(1))); err == nil {
		t.Error("NewSampler on infeasible graph: want error")
	}
	if _, err := EstimateCracksCtx(context.Background(), g, Config{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("EstimateCracksCtx on infeasible graph: want error")
	}
}

func TestSamplerInvariants(t *testing.T) {
	// Every state the sampler visits must be a consistent perfect matching
	// that keeps every propagation-forced pair, across both move kinds.
	rng := rand.New(rand.NewSource(11))
	ft := mustTable(t, 30, []int{3, 3, 9, 9, 14, 20, 20, 26})
	bf := belief.RandomCompliant(ft.Frequencies(), 0.25, rng)
	for _, g := range []*bipartite.Graph{buildGraph(t, bf, ft), mixedGraph(t)} {
		p, err := g.PropagateCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSampler(context.Background(), g, rng)
		if err != nil {
			t.Fatal(err)
		}
		n := g.Items()
		for sweep := 0; sweep < 200; sweep++ {
			if sweep%2 == 0 {
				s.Sweep()
			} else {
				s.TargetedSweep()
			}
			m := s.Matching()
			used := make([]bool, n)
			for x, w := range m {
				if used[w] {
					t.Fatalf("sweep %d: anonymized item %d matched twice", sweep, w)
				}
				used[w] = true
				if !g.HasEdge(w, x) {
					t.Fatalf("sweep %d: inconsistent edge (%d,%d)", sweep, w, x)
				}
			}
			for _, fp := range p.Forced {
				if m[fp.Item] != fp.Anon {
					t.Fatalf("sweep %d: forced pair (%d,%d) moved to (%d,%d)", sweep, fp.Anon, fp.Item, m[fp.Item], fp.Item)
				}
			}
			if c := s.Cracks(); c < 0 || c > n {
				t.Fatalf("sweep %d: crack count %d out of range", sweep, c)
			}
		}
	}
}

// TestEstimateChargesOpenProposals pins the budget to the proposals a sweep
// makes. Under a point-valued belief over distinct counts every group is a
// singleton, propagation forces every item and a sweep proposes nothing, so
// an operation limit of 16 per item — less than the burn-in alone would cost
// at one proposal per item — still buys the whole estimate, at Lemma 3's
// exact value.
func TestEstimateChargesOpenProposals(t *testing.T) {
	const n = 4096
	counts := make([]int, n)
	for i := range counts {
		counts[i] = i + 1
	}
	ft := mustTable(t, n, counts)
	g := buildGraph(t, belief.PointValued(ft.Frequencies()), ft)
	ctx := budget.WithMaxOps(context.Background(), 16*n)
	est, err := EstimateCracksCtx(ctx, g, Config{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != n || est.StdDev != 0 {
		t.Errorf("simulated E(X) = %v ± %v, want exactly %d (Lemma 3, all groups singletons)", est.Mean, est.StdDev, n)
	}
	s, err := NewSampler(ctx, g, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TargetedSweep(); got != 0 {
		t.Errorf("TargetedSweep accepted %d moves with every item forced, want 0", got)
	}
}

func TestEstimateFraction(t *testing.T) {
	e := &Estimate{Mean: 2.5}
	if got := e.Fraction(10); got != 0.25 {
		t.Errorf("Fraction = %v, want 0.25", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SeedSweeps <= 0 || c.SampleGap <= 0 || c.SamplesPerSeed <= 0 || c.Samples <= 0 || c.Runs <= 0 {
		t.Errorf("defaults not filled: %+v", c)
	}
	explicit := Config{SeedSweeps: 1, SampleGap: 2, SamplesPerSeed: 3, Samples: 4, Runs: 5}
	if got := explicit.withDefaults(); got != explicit {
		t.Errorf("explicit config altered: %+v", got)
	}
}

func TestSamplerDistributionMatchesExactSampler(t *testing.T) {
	// Beyond expectations: compare the full crack-count histogram of the
	// MCMC sampler against the exact P(X = k) of a uniform perfect matching,
	// by enumeration, on a random compliant graph. This catches biases that
	// averages would hide.
	rng := rand.New(rand.NewSource(89))
	ft := mustTable(t, 30, []int{4, 4, 9, 9, 9, 16, 16, 23})
	bf := belief.RandomCompliant(ft.Frequencies(), 0.25, rng)
	g := buildGraph(t, bf, ft)
	exact, err := core.CrackDistributionCtx(context.Background(), g.ToExplicit())
	if err != nil {
		t.Fatal(err)
	}
	n := g.Items()
	s, err := NewSampler(context.Background(), g, rng)
	if err != nil {
		t.Fatal(err)
	}
	s.Reseed(50)
	const draws = 20000
	mcmcHist := make([]float64, n+1)
	for k := 0; k < draws; k++ {
		for sw := 0; sw < 3; sw++ {
			s.Step()
		}
		mcmcHist[s.Cracks()]++
	}
	for k := 0; k <= n; k++ {
		pe, pm := exact[k], mcmcHist[k]/draws
		if diff := pe - pm; diff > 0.04 || diff < -0.04 {
			t.Errorf("P(X=%d): exact %v vs MCMC %v", k, pe, pm)
		}
	}
}
