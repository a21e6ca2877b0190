package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/dataset"
)

func TestExactExpectedCracksComplete(t *testing.T) {
	// Lemma 1 via the direct method: complete graph -> E(X) = 1.
	for n := 1; n <= 7; n++ {
		got, err := ExactExpectedCracksCtx(context.Background(), bipartite.Complete(n))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-1) > 1e-9 {
			t.Errorf("n=%d: E(X) = %v, want 1", n, got)
		}
	}
}

func TestExactExpectedCracksPointValuedGroups(t *testing.T) {
	// Lemma 3 via the direct method on BigMart: three groups -> E(X) = 3.
	ft := bigMartTable(t)
	g, err := bipartite.Build(belief.PointValued(ft.Frequencies()), dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExactExpectedCracksCtx(context.Background(), g.ToExplicit())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3) > 1e-9 {
		t.Errorf("E(X) = %v, want 3", got)
	}
}

func TestChainExactMatchesPermanents(t *testing.T) {
	// Lemma 6 must agree with the permanent-based direct method on every
	// realizable small chain — the strongest validation of the closed form.
	rng := rand.New(rand.NewSource(29))
	tested := 0
	for trial := 0; trial < 60; trial++ {
		spec := randomChain(rng, 3, 4)
		if spec.Items() > 9 {
			continue
		}
		counts := make([]int, len(spec.GroupSizes))
		for i := range counts {
			counts[i] = 3 + 4*i
		}
		ft, bf, err := spec.Realize(30, counts)
		if err != nil {
			t.Fatal(err)
		}
		g, err := bipartite.Build(bf, dataset.GroupItems(ft))
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactExpectedCracksCtx(context.Background(), g.ToExplicit())
		if err != nil {
			t.Fatal(err)
		}
		closed, err := spec.ExpectedCracks()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-closed) > 1e-9 {
			t.Fatalf("trial %d: permanents say %v, Lemma 6 says %v (spec %+v)",
				trial, exact, closed, spec)
		}
		tested++
	}
	if tested < 20 {
		t.Errorf("only %d chains tested, want >= 20", tested)
	}
}

func TestFigure4aExactViaPermanents(t *testing.T) {
	spec := Figure4aChain()
	ft, bf, err := spec.Realize(10, []int{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExactExpectedCracksCtx(context.Background(), g.ToExplicit())
	if err != nil {
		t.Fatal(err)
	}
	if want := 74.0 / 45.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("E(X) = %v, want 74/45 = %v", got, want)
	}
}

func TestCrackDistributionComplete(t *testing.T) {
	// On K_3, P(X=k) follows derangement counts: P(0)=2/6, P(1)=3/6, P(3)=1/6.
	dist, err := CrackDistributionCtx(context.Background(), bipartite.Complete(3))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.0 / 6, 3.0 / 6, 0, 1.0 / 6}
	for k := range want {
		if math.Abs(dist[k]-want[k]) > 1e-12 {
			t.Errorf("P(X=%d) = %v, want %v", k, dist[k], want[k])
		}
	}
}

func TestCrackDistributionDirectMatchesEnumeration(t *testing.T) {
	// The paper's Section 4.1 subset-permanent formula must equal the
	// enumeration histogram.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		e := bipartite.RandomExplicit(n, 0.6, rng)
		dist, err := CrackDistributionCtx(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= n; k++ {
			direct, err := CrackDistributionDirect(context.Background(), e, k)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(direct-dist[k]) > 1e-9 {
				t.Fatalf("trial %d: P(X=%d) direct %v, enumeration %v", trial, k, direct, dist[k])
			}
		}
	}
}

func TestExpectedFromDistribution(t *testing.T) {
	// E(X) = Σ k·P(X=k) must match the minor-based expectation.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		e := bipartite.RandomExplicit(n, 0.5, rng)
		dist, err := CrackDistributionCtx(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for k, p := range dist {
			want += float64(k) * p
		}
		got, err := ExactExpectedCracksCtx(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: E = %v via minors, %v via distribution", trial, got, want)
		}
	}
}

func TestCrackDistributionInfeasible(t *testing.T) {
	e := bipartite.MustExplicit(2, [][]int{{1}, {1}})
	if _, err := CrackDistributionCtx(context.Background(), e); err == nil {
		t.Error("CrackDistributionCtx on infeasible graph: want error")
	}
	if _, err := CrackDistributionDirect(context.Background(), e, 0); err == nil {
		t.Error("CrackDistributionDirect on infeasible graph: want error")
	}
	if _, err := CrackDistributionDirect(context.Background(), bipartite.Complete(2), 5); err == nil {
		t.Error("k out of range: want error")
	}
}

// TestOEstimateTracksExact quantifies the heuristic's accuracy on random
// compliant graphs: OE should stay within a modest relative error of the
// permanent-exact expectation (the paper reports it "practically accurate").
func TestOEstimateTracksExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var worst float64
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(6)
		m := 20
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft := mustTable(t, m, counts)
		bf := belief.RandomCompliant(ft.Frequencies(), 0.15, rng)
		g, err := bipartite.Build(bf, dataset.GroupItems(ft))
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactExpectedCracksCtx(context.Background(), g.ToExplicit())
		if err != nil {
			t.Fatal(err)
		}
		res, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{Propagate: true})
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(res.Value-exact) / math.Max(exact, 1)
		if relErr > worst {
			worst = relErr
		}
	}
	if worst > 0.5 {
		t.Errorf("worst relative error %v, want <= 0.5 on random compliant graphs", worst)
	}
}
