package perturb

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/itemsetrisk"
)

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Keep: -0.1, Insert: 0.1},
		{Keep: 1.1, Insert: 0.1},
		{Keep: 0.5, Insert: -0.2},
		{Keep: 0.5, Insert: 1.2},
		{Keep: 0.3, Insert: 0.3},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v: want validation error", p)
		}
	}
	if err := (Params{Keep: 0.9, Insert: 0.05}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestRandomizeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db, err := datagen.Quest(datagen.QuestConfig{Items: 30, Transactions: 500}, rng)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Randomize(db, Params{Keep: 0.9, Insert: 0.02}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Items() != db.Items() {
		t.Errorf("domain changed: %d", out.Items())
	}
	if out.Transactions() > db.Transactions() {
		t.Errorf("transactions grew: %d > %d", out.Transactions(), db.Transactions())
	}
	if _, err := Randomize(db, Params{Keep: 0.5, Insert: 0.5}, rng); err == nil {
		t.Error("degenerate params: want error")
	}
}

func TestEstimateSupportsUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db, err := datagen.Quest(datagen.QuestConfig{Items: 20, Transactions: 3000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	trueCounts := db.SupportCounts()
	params := Params{Keep: 0.85, Insert: 0.05}
	// Average the estimator over independent randomizations.
	const reps = 30
	sums := make([]float64, db.Items())
	for r := 0; r < reps; r++ {
		out, err := Randomize(db, params, rng)
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateSupports(out, db.Transactions(), params)
		if err != nil {
			t.Fatal(err)
		}
		for x, v := range est {
			sums[x] += v
		}
	}
	for x, c := range trueCounts {
		mean := sums[x] / reps
		tol := 0.05*float64(db.Transactions()) + 10
		if math.Abs(mean-float64(c)) > tol {
			t.Errorf("item %d: mean estimate %v, true %d", x, mean, c)
		}
	}
}

func TestEstimatePairSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db, err := datagen.Quest(datagen.QuestConfig{Items: 12, Transactions: 4000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	truePairs, err := itemsetrisk.ComputePairsCtx(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	trueCounts := db.SupportCounts()
	params := Params{Keep: 0.9, Insert: 0.03}
	const reps = 20
	// Track a handful of pairs.
	type pk struct{ a, b int }
	pairs := []pk{{0, 1}, {2, 5}, {3, 7}, {8, 11}}
	sums := map[pk]float64{}
	for r := 0; r < reps; r++ {
		out, err := Randomize(db, params, rng)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := itemsetrisk.ComputePairsCtx(context.Background(), out)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			est, err := EstimatePairSupport(obs.Support(p.a, p.b),
				float64(trueCounts[p.a]), float64(trueCounts[p.b]), db.Transactions(), params)
			if err != nil {
				t.Fatal(err)
			}
			sums[p] += est
		}
	}
	for _, p := range pairs {
		mean := sums[p] / reps
		truth := float64(truePairs.Support(p.a, p.b))
		tol := 0.06*float64(db.Transactions()) + 15
		if math.Abs(mean-truth) > tol {
			t.Errorf("pair (%d,%d): mean estimate %v, true %v", p.a, p.b, mean, truth)
		}
	}
	if _, err := EstimatePairSupport(1, 1, 1, 0, params); err == nil {
		t.Error("m = 0: want error")
	}
}

func TestRandomizationBluntsPointValuedHacker(t *testing.T) {
	// The risk story: an omniscient-frequency hacker's belief function is
	// compliant against a plain anonymized release by definition, but its
	// compliancy against the randomized release's observed frequencies
	// collapses — frequencies moved.
	rng := rand.New(rand.NewSource(4))
	plan := datagen.GroupPlan{Name: "t", Items: 80, Transactions: 2000, Groups: 40, Singletons: 25,
		MedianGapFreq: 0.003, MeanGapFreq: 0.01}
	db, err := plan.Database(rng)
	if err != nil {
		t.Fatal(err)
	}
	trueFreqs := db.Frequencies()
	gr := dataset.GroupItems(db.Table())
	bf := belief.UniformWidth(trueFreqs, gr.MedianGap())

	out, err := Randomize(db, Params{Keep: 0.8, Insert: 0.1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	randFreqs := out.Frequencies()
	alphaPlain := bf.Alpha(trueFreqs)
	alphaRand := bf.Alpha(randFreqs)
	if alphaPlain != 1 {
		t.Fatalf("plain-release compliancy = %v, want 1", alphaPlain)
	}
	if alphaRand > 0.5 {
		t.Errorf("randomized-release compliancy = %v, want well below 1", alphaRand)
	}
}

func TestEstimateSupportsValidation(t *testing.T) {
	db := dataset.MustNew(2, []dataset.Transaction{{0}, {1}})
	if _, err := EstimateSupports(db, 0, Params{Keep: 0.9, Insert: 0.1}); err == nil {
		t.Error("m = 0: want error")
	}
	if _, err := EstimateSupports(db, 2, Params{Keep: 0.5, Insert: 0.5}); err == nil {
		t.Error("bad params: want error")
	}
}
