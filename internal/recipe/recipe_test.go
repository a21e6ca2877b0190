package recipe

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

func mustTable(t testing.TB, m int, counts []int) *dataset.FrequencyTable {
	t.Helper()
	ft, err := dataset.NewTable(m, counts)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestOptionsValidation(t *testing.T) {
	ft := mustTable(t, 10, []int{5, 5})
	rng := rand.New(rand.NewSource(1))
	if _, err := AssessRiskCtx(context.Background(), ft, Options{Tolerance: 0, Rng: rng}); err == nil {
		t.Error("tolerance 0: want error")
	}
	if _, err := AssessRiskCtx(context.Background(), ft, Options{Tolerance: 1, Rng: rng}); err == nil {
		t.Error("tolerance 1: want error")
	}
	if _, err := AssessRiskCtx(context.Background(), ft, Options{Tolerance: math.NaN(), Rng: rng}); err == nil {
		t.Error("tolerance NaN: want error")
	}
	if _, err := AssessRiskCtx(context.Background(), ft, Options{Tolerance: 0.5}); err == nil {
		t.Error("missing rng: want error")
	}
}

func TestStage1PointValuedDisclose(t *testing.T) {
	// One big group: g = 1 <= τ·n for τ = 0.3, n = 10.
	counts := make([]int, 10)
	for i := range counts {
		counts[i] = 7
	}
	ft := mustTable(t, 20, counts)
	res, err := AssessRiskCtx(context.Background(), ft, Options{Tolerance: 0.3, Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Disclose || res.Stage != StagePointValued {
		t.Errorf("result %+v, want stage-1 disclose", res)
	}
	if res.Groups != 1 || res.FractionPointValued() != 0.1 {
		t.Errorf("groups %d fraction %v", res.Groups, res.FractionPointValued())
	}
}

func TestStage2IntervalDisclose(t *testing.T) {
	// Counts packed at unit gaps: point-valued cracks everything (g = n),
	// but δ_med-wide intervals overlap heavily, dropping the O-estimate.
	n, m := 40, 100
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 30 + i
	}
	ft := mustTable(t, m, counts)
	res, err := AssessRiskCtx(context.Background(), ft, Options{Tolerance: 0.5, Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Disclose || res.Stage != StageCompliantInterval {
		t.Fatalf("result %+v, want stage-2 disclose", res)
	}
	if res.DeltaMed <= 0 {
		t.Errorf("DeltaMed = %v, want > 0", res.DeltaMed)
	}
	if res.OEFull > 0.5*float64(n) {
		t.Errorf("OEFull = %v exceeds the budget yet stage 2 disclosed", res.OEFull)
	}
}

func TestStage3AlphaSearch(t *testing.T) {
	// Equally spaced counts 20 apart: every item is its own group, and the
	// δ_med = 0.02 interval reaches exactly the two neighbouring groups, so
	// O_x = 3 for interior items and OE(α) ≈ αn/3. The budget τn is hit at
	// α_max ≈ 3τ, which stays below the default 0.5 comfort for τ = 0.1.
	n := 32
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 10 + 20*i
	}
	ft := mustTable(t, 1000, counts)
	tau := 0.1
	res, err := AssessRiskCtx(context.Background(), ft, Options{Tolerance: tau, Rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage != StageAlphaSearch {
		t.Fatalf("stage = %v, want alpha search", res.Stage)
	}
	if math.Abs(res.AlphaMax-3*tau) > 0.07 {
		t.Errorf("AlphaMax = %v, want ≈ %v", res.AlphaMax, 3*tau)
	}
	if res.Disclose {
		t.Error("α_max ≈ 0.3 < default comfort 0.5: want withhold")
	}
	// With a generous comfort level the same evidence discloses.
	res2, err := AssessRiskCtx(context.Background(), ft, Options{Tolerance: tau, AlphaComfort: 0.2, Rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Disclose {
		t.Error("comfort 0.2 <= α_max: want disclose")
	}
}

func TestAlphaSearchMonotoneCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	plan := datagen.GroupPlan{Name: "t", Items: 120, Transactions: 600, Groups: 40, Singletons: 25,
		MedianGapFreq: 0.004, MeanGapFreq: 0.02}
	ft, err := plan.Counts(rng)
	if err != nil {
		t.Fatal(err)
	}
	gr := dataset.GroupItems(ft)
	bf := belief.UniformWidth(ft.Frequencies(), gr.MedianGap())
	s, err := NewAlphaSearch(ft, bf, 5, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	alphas := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	curve, err := s.CurveCtx(context.Background(), alphas)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1]-1e-9 {
			t.Errorf("curve not monotone at %v: %v < %v", alphas[i], curve[i], curve[i-1])
		}
	}
	if curve[0] != 0 {
		t.Errorf("curve at α=0 is %v, want 0", curve[0])
	}
	// Binary search against the curve: α_max for a mid-curve budget.
	budget := curve[3] * float64(ft.NItems) // budget hit exactly at α=0.6
	amax, err := s.MaxAlphaWithinCtx(context.Background(), budget, 1.0/128)
	if err != nil {
		t.Fatal(err)
	}
	if amax < 0.55 || amax > 0.85 {
		t.Errorf("MaxAlphaWithinCtx = %v, want near 0.6", amax)
	}
	// A huge budget saturates at 1.
	if amax, _ := s.MaxAlphaWithinCtx(context.Background(), float64(ft.NItems), 1.0/64); amax != 1 {
		t.Errorf("unbounded budget: α_max = %v, want 1", amax)
	}
	if _, err := s.OEAtCtx(context.Background(), -0.1); err == nil {
		t.Error("OEAt(-0.1): want error")
	}
}

func TestAlphaSearchDomainMismatch(t *testing.T) {
	ft := mustTable(t, 10, []int{3, 7})
	if _, err := NewAlphaSearch(ft, belief.Ignorant(3), 2, false, rand.New(rand.NewSource(1))); err == nil {
		t.Error("domain mismatch: want error")
	}
}

func TestSimilarityBySamplingBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	plan := datagen.GroupPlan{Name: "sim", Items: 60, Transactions: 2000, Groups: 25, Singletons: 15,
		MedianGapFreq: 0.005, MeanGapFreq: 0.02}
	db, err := plan.Database(rng)
	if err != nil {
		t.Fatal(err)
	}
	points, err := SimilarityBySampling(db, []float64{0.1, 0.5, 0.9}, 5, UseMedianGap, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.AlphaMean < 0 || p.AlphaMean > 1 {
			t.Errorf("alpha %v outside [0,1]", p.AlphaMean)
		}
	}
	// A 90% sample should be quite compliant for a "normal" dataset.
	if points[2].AlphaMean < 0.5 {
		t.Errorf("90%% sample alpha = %v, want >= 0.5", points[2].AlphaMean)
	}
	if _, err := SimilarityBySampling(db, nil, 5, UseMedianGap, rng); err == nil {
		t.Error("no fractions: want error")
	}
	if _, err := SimilarityBySampling(db, []float64{1.5}, 5, UseMedianGap, rng); err == nil {
		t.Error("fraction > 1: want error")
	}
}

func TestSimilarityCountsMeanGapNearOne(t *testing.T) {
	// The paper (Section 7.4, RETAIL discussion): with the sampled AVERAGE
	// gap as width, compliancy sits at ~0.99 across sample sizes — the
	// average is dominated by a few huge gaps, making intervals so wide they
	// are trivially compliant.
	rng := rand.New(rand.NewSource(7))
	ft, err := datagen.RETAIL.Counts(rng)
	if err != nil {
		t.Fatal(err)
	}
	points, err := SimilarityBySamplingCounts(ft, []float64{0.1, 0.5}, 3, UseMeanGap, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.AlphaMean < 0.95 {
			t.Errorf("mean-gap alpha at p=%v is %v, want >= 0.95", p.Fraction, p.AlphaMean)
		}
	}
}

func TestSimilarityCountsMedianVsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ft, err := datagen.ACCIDENTS.Counts(rng)
	if err != nil {
		t.Fatal(err)
	}
	med, err := SimilarityBySamplingCounts(ft, []float64{0.2}, 3, UseMedianGap, rng)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := SimilarityBySamplingCounts(ft, []float64{0.2}, 3, UseMeanGap, rng)
	if err != nil {
		t.Fatal(err)
	}
	if med[0].AlphaMean > mean[0].AlphaMean {
		t.Errorf("median-gap alpha %v should not exceed mean-gap alpha %v",
			med[0].AlphaMean, mean[0].AlphaMean)
	}
}

func TestStageString(t *testing.T) {
	for _, s := range []Stage{StagePointValued, StageCompliantInterval, StageAlphaSearch, Stage(99)} {
		if s.String() == "" {
			t.Errorf("empty String for %d", int(s))
		}
	}
}

func TestAlphaSearchBiasedDominatesUniform(t *testing.T) {
	// Dropping the high-contribution items first can only stretch the
	// tolerance: at every α the biased estimate is (weakly) below the
	// uniform one, so the biased α_max dominates.
	rng := rand.New(rand.NewSource(41))
	plan := datagen.GroupPlan{Name: "b", Items: 150, Transactions: 800, Groups: 60, Singletons: 40,
		MedianGapFreq: 0.003, MeanGapFreq: 0.012}
	ft, err := plan.Counts(rng)
	if err != nil {
		t.Fatal(err)
	}
	gr := dataset.GroupItems(ft)
	bf := belief.UniformWidth(ft.Frequencies(), gr.MedianGap())
	uni, err := NewAlphaSearch(ft, bf, 4, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	bia, err := NewAlphaSearchBiased(ft, bf, 4, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []float64{0.25, 0.5, 0.75} {
		u, err := uni.OEAtCtx(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		b, err := bia.OEAtCtx(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if b > u+0.05*u+0.5 {
			t.Errorf("α=%v: biased OE %v exceeds uniform %v", a, b, u)
		}
	}
	budget := 0.1 * float64(ft.NItems)
	uMax, err := uni.MaxAlphaWithinCtx(context.Background(), budget, 1.0/64)
	if err != nil {
		t.Fatal(err)
	}
	bMax, err := bia.MaxAlphaWithinCtx(context.Background(), budget, 1.0/64)
	if err != nil {
		t.Fatal(err)
	}
	if bMax < uMax-1.0/32 {
		t.Errorf("biased α_max %v below uniform %v", bMax, uMax)
	}
	// Biased curves are super-linear: the midpoint sits below the chord.
	full, err := bia.OEAtCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := bia.OEAtCtx(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if full > 1 && mid > 0.5*full {
		t.Errorf("biased curve not super-linear: OE(0.5)=%v vs OE(1)/2=%v", mid, 0.5*full)
	}
	if _, err := NewAlphaSearchBiased(ft, belief.Ignorant(3), 2, false, rng); err == nil {
		t.Error("domain mismatch: want error")
	}
}

func TestResultFractions(t *testing.T) {
	r := &Result{Items: 10, Groups: 4, OEFull: 2.5}
	if r.FractionPointValued() != 0.4 {
		t.Errorf("FractionPointValued = %v", r.FractionPointValued())
	}
	if r.FractionOEFull() != 0.25 {
		t.Errorf("FractionOEFull = %v", r.FractionOEFull())
	}
}
