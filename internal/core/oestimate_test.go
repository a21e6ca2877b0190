package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/dataset"
)

// beliefH is the belief function h of Figure 2 over the BigMart domain.
func beliefH() *belief.Function {
	return belief.MustNew([]belief.Interval{
		{Lo: 0, Hi: 1}, {Lo: 0.4, Hi: 0.5}, {Lo: 0.5, Hi: 0.5},
		{Lo: 0.4, Hi: 0.6}, {Lo: 0.1, Hi: 0.4}, {Lo: 0.5, Hi: 0.5},
	})
}

func TestOEstimateBigMartH(t *testing.T) {
	// Outdegrees under h: (6, 5, 4, 5, 2, 4) -> OE = 1/6+1/5+1/4+1/5+1/2+1/4.
	res, err := OEstimateCtx(context.Background(), beliefH(), bigMartTable(t), OEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0/6 + 1.0/5 + 1.0/4 + 1.0/5 + 1.0/2 + 1.0/4
	if math.Abs(res.Value-want) > 1e-12 {
		t.Errorf("OE = %v, want %v", res.Value, want)
	}
	if f := res.Fraction(); math.Abs(f-want/6) > 1e-12 {
		t.Errorf("Fraction = %v, want %v", f, want/6)
	}
	if got := res.Crackable.Count(); got != 6 {
		t.Errorf("%d crackable items, want all 6 under compliant h", got)
	}
}

func TestOEstimateIgnorantIsLemma1(t *testing.T) {
	ft := bigMartTable(t)
	res, err := OEstimateCtx(context.Background(), belief.Ignorant(ft.NItems), ft, OEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-1) > 1e-12 {
		t.Errorf("OE(ignorant) = %v, want 1 (Lemma 1: exact here)", res.Value)
	}
}

func TestOEstimatePointValuedIsLemma3(t *testing.T) {
	// For point-valued compliant beliefs, O_x equals the size of x's group,
	// so OE = Σ_g n_g · (1/n_g) = g. The heuristic is exact at this extreme.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		m := 1 + rng.Intn(40)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft := mustTable(t, m, counts)
		gr := dataset.GroupItems(ft)
		res, err := OEstimateCtx(context.Background(), belief.PointValued(ft.Frequencies()), ft, OEOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := ExpectedCracksPointValued(gr)
		if math.Abs(res.Value-want) > 1e-9 {
			t.Fatalf("trial %d: OE = %v, want g = %v", trial, res.Value, want)
		}
	}
}

func TestOEstimateChainClosedForm(t *testing.T) {
	// The generic graph O-estimate must agree with the chain closed form on
	// realized chains.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		spec := randomChain(rng, 4, 6)
		k := len(spec.GroupSizes)
		counts := make([]int, k)
		for i := range counts {
			counts[i] = 5 + i*7
		}
		ft, bf, err := spec.Realize(60, counts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := spec.OEstimate()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Value-want) > 1e-9 {
			t.Fatalf("trial %d: graph OE = %v, closed form = %v (spec %+v)", trial, res.Value, want, spec)
		}
	}
}

func TestOEstimateMonotonicityLemma8(t *testing.T) {
	// Lemma 8: β1 ⊑ β2 (narrower intervals) implies OE(β1) >= OE(β2).
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		m := 10 + rng.Intn(50)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft := mustTable(t, m, counts)
		b1 := belief.RandomCompliant(ft.Frequencies(), 0.2, rng)
		b2 := b1.Widen(rng.Float64() * 0.3)
		r1, err := OEstimateCtx(context.Background(), b1, ft, OEOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := OEstimateCtx(context.Background(), b2, ft, OEOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Value < r2.Value-1e-9 {
			t.Fatalf("trial %d: OE(narrow) = %v < OE(wide) = %v, violating Lemma 8",
				trial, r1.Value, r2.Value)
		}
	}
}

func TestOEstimateMaskMonotonicityLemma10(t *testing.T) {
	// Lemma 10: shrinking the compliant set never increases the O-estimate.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(40)
		m := 10 + rng.Intn(50)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft := mustTable(t, m, counts)
		bf := belief.RandomCompliant(ft.Frequencies(), 0.15, rng)
		mask := make([]bool, n)
		for i := range mask {
			mask[i] = true
		}
		prev := math.Inf(1)
		for level := 0; level < 4; level++ {
			res, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{Mask: bitset.FromBools(mask)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Value > prev+1e-9 {
				t.Fatalf("trial %d level %d: OE grew from %v to %v as compliant set shrank",
					trial, level, prev, res.Value)
			}
			prev = res.Value
			mask = belief.ShrinkCompliantSet(mask, rng)
		}
	}
}

func TestOEstimateMaskExcludesItems(t *testing.T) {
	ft := bigMartTable(t)
	mask := []bool{true, false, true, false, true, false}
	res, err := OEstimateCtx(context.Background(), beliefH(), ft, OEOptions{Mask: bitset.FromBools(mask)})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0/6 + 1.0/4 + 1.0/2 // items 0, 2, 4
	if math.Abs(res.Value-want) > 1e-12 {
		t.Errorf("masked OE = %v, want %v", res.Value, want)
	}
	for x := range mask {
		if got := res.Crackable.Contains(x); got != mask[x] {
			t.Errorf("Crackable(%d) = %v, want %v", x, got, mask[x])
		}
	}
	if _, err := OEstimateCtx(context.Background(), beliefH(), ft, OEOptions{Mask: bitset.New(1)}); err == nil {
		t.Error("short mask: want error")
	}
}

func TestOEstimateNonCompliantContributesZero(t *testing.T) {
	ft := bigMartTable(t)
	// Item 0 guesses wrong (its true frequency is 0.5).
	bf := belief.MustNew([]belief.Interval{
		{Lo: 0.05, Hi: 0.15}, {Lo: 0.4, Hi: 0.5}, {Lo: 0.5, Hi: 0.5},
		{Lo: 0.4, Hi: 0.6}, {Lo: 0.1, Hi: 0.4}, {Lo: 0.5, Hi: 0.5},
	})
	res, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crackable.Contains(0) {
		t.Error("non-compliant item 0 must not be crackable")
	}
	// Item 0's interval misses every observed frequency, so the remaining
	// outdegrees match h's for items 1..5... except item 0 covered all groups
	// under h. Recompute expected: O = (0, 5, 4, 5, 2, 4) minus item0's
	// contribution to others: none (outdegree counts anonymized items, which
	// are unchanged). OE sums over compliant items 1..5.
	want := 1.0/5 + 1.0/4 + 1.0/5 + 1.0/2 + 1.0/4
	if math.Abs(res.Value-want) > 1e-12 {
		t.Errorf("OE = %v, want %v", res.Value, want)
	}
}

func TestOEstimatePropagationFigure6a(t *testing.T) {
	// Figure 6(a): plain OE = 25/12; with propagation every item is forced
	// into its own crack, so the estimate becomes exactly 4.
	counts := []int{1, 2, 3, 4}
	ft := mustTable(t, 8, counts)
	freqs := ft.Frequencies()
	ivs := make([]belief.Interval, 4)
	for x := range ivs {
		ivs[x] = belief.Interval{Lo: freqs[0], Hi: freqs[x]}
	}
	bf := belief.MustNew(ivs)

	plain, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 25.0 / 12.0; math.Abs(plain.Value-want) > 1e-12 {
		t.Errorf("plain OE = %v, want 25/12 = %v", plain.Value, want)
	}
	prop, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{Propagate: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(prop.Value-4) > 1e-12 {
		t.Errorf("propagated OE = %v, want 4 (the true crack count)", prop.Value)
	}
	if prop.Forced != 4 {
		t.Errorf("Forced = %d, want 4", prop.Forced)
	}
}

func TestOEstimatePropagationForcedNonCrack(t *testing.T) {
	// A forced pair that is NOT a crack must contribute 0, and an item whose
	// anonymized twin is consumed by someone else's forced match must too.
	// Construction: two items, counts (2, 6) over 10. Item 0 believes [0.6,0.6]
	// (wrong; matches item 1's frequency and only that singleton group);
	// item 1 is ignorant. Every consistent matching maps 1'↦0 and 0'↦1:
	// zero cracks.
	ft := mustTable(t, 10, []int{2, 6})
	bf := belief.MustNew([]belief.Interval{{Lo: 0.6, Hi: 0.6}, {Lo: 0, Hi: 1}})
	prop, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{Propagate: true})
	if err != nil {
		t.Fatal(err)
	}
	if prop.Value != 0 {
		t.Errorf("OE = %v, want 0 (no consistent mapping cracks anything)", prop.Value)
	}
	// Sanity: exact computation agrees.
	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactExpectedCracksCtx(context.Background(), g.ToExplicit())
	if err != nil {
		t.Fatal(err)
	}
	if exact != 0 {
		t.Errorf("exact E(X) = %v, want 0", exact)
	}
}

func TestOEstimatePropagationInfeasible(t *testing.T) {
	ft := mustTable(t, 10, []int{2, 6})
	// Both items insist on the singleton 0.6 group: infeasible.
	bf := belief.MustNew([]belief.Interval{{Lo: 0.6, Hi: 0.6}, {Lo: 0.6, Hi: 0.6}})
	if _, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{Propagate: true}); err == nil {
		t.Error("want infeasibility error")
	}
}

func TestOEstimateGraphSection8Generality(t *testing.T) {
	// Section 8.1: the estimate works on any consistency graph, however it
	// was set up. Build a graph directly and estimate from it.
	ft := bigMartTable(t)
	g, err := bipartite.Build(beliefH(), dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	res, err := OEstimateGraphCtx(context.Background(), g, OEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	viaFn, err := OEstimateCtx(context.Background(), beliefH(), ft, OEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != viaFn.Value {
		t.Errorf("OEstimateGraphCtx = %v, OEstimateCtx = %v", res.Value, viaFn.Value)
	}
}

func TestOEstimateInterestLemma2And4(t *testing.T) {
	ft := bigMartTable(t)
	gr := dataset.GroupItems(ft)

	// Interest in items 0 and 4 only.
	interest := []bool{true, false, false, false, true, false}

	// Ignorant belief: OE restricted to the subset equals Lemma 2's n1/n.
	res, err := OEstimateCtx(context.Background(), belief.Ignorant(6), ft, OEOptions{Interest: bitset.FromBools(interest)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExpectedCracksIgnorantSubset(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-want) > 1e-12 {
		t.Errorf("interest OE (ignorant) = %v, want %v (Lemma 2)", res.Value, want)
	}

	// Point-valued belief: OE restricted equals Lemma 4's Σ c_i/n_i.
	res, err = OEstimateCtx(context.Background(), belief.PointValued(ft.Frequencies()), ft, OEOptions{Interest: bitset.FromBools(interest)})
	if err != nil {
		t.Fatal(err)
	}
	want, err = ExpectedCracksPointValuedSubset(gr, interest)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-want) > 1e-12 {
		t.Errorf("interest OE (point-valued) = %v, want %v (Lemma 4)", res.Value, want)
	}

	// Interest with propagation: forced cracks outside the interest set do
	// not count.
	onlyBig := []bool{true, false, true, true, false, true} // the 0.5 group
	res, err = OEstimateCtx(context.Background(), belief.PointValued(ft.Frequencies()), ft, OEOptions{Interest: bitset.FromBools(onlyBig), Propagate: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-1) > 1e-12 {
		t.Errorf("interest OE (propagated, big group only) = %v, want 1", res.Value)
	}

	if _, err := OEstimateCtx(context.Background(), belief.Ignorant(6), ft, OEOptions{Interest: bitset.New(1)}); err == nil {
		t.Error("short interest mask: want error")
	}
}
