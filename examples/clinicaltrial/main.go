// Clinicaltrial plays out the paper's "mining as a service" scenario in the
// setting its introduction highlights: clinical-trial data, where
// de-identification (anonymization) is standard practice. A sponsor ships
// de-identified visit records — each visit lists the treatment and
// observation codes that occurred — to an outside analytics firm. The worry:
// a leak at the firm, combined with a partial sample of the original coding
// dictionary usage, could re-identify which code is which.
//
// The example follows the paper's Section 7.4 playbook: the owner simulates
// the leak by sampling its own data at increasing rates (Figure 13),
// measures the compliancy of the leak-derived belief function, and combines
// that curve with the recipe's α_max to make the call.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	anonrisk "repro"
	"repro/internal/datagen"
	"repro/internal/recipe"
)

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))

	// The trial: 350 medical codes over 20,000 visit records, with realistic
	// frequency structure (many rare codes, a dense band of routine ones).
	plan := datagen.GroupPlan{
		Name: "TRIAL", Items: 350, Transactions: 20000,
		Groups: 180, Singletons: 140,
		MedianGapFreq: 0.0004, MeanGapFreq: 0.004, MaxGapFreq: 0.08,
	}
	db, err := plan.Database(rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(anonrisk.ComputeStats("trial", db))

	// Step 1 — the recipe: how much correct guessing can the sponsor absorb
	// before the analytics firm's hypothetical leak crosses τ = 0.05?
	res, err := anonrisk.AssessRiskCtx(ctx, db, anonrisk.AssessOptions{Tolerance: 0.05, Propagate: true, Rng: rng})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAssess-Risk at τ=0.05: stage=%q", res.Stage)
	fmt.Printf("  g=%d (%.2f of domain)  OE_full=%.1f (%.2f)  α_max=%.2f\n",
		res.Groups, res.FractionPointValued(), res.OEFull, res.FractionOEFull(), res.AlphaMax)

	// Step 2 — similarity by sampling (Figure 13): if a p-fraction of the
	// records leaks, how compliant is the belief function built from it?
	points, err := recipe.SimilarityBySampling(db,
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5}, 10, recipe.UseMedianGap, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nleak size vs hacker compliancy (10 samples each):")
	for _, p := range points {
		marker := ""
		if p.AlphaMean >= res.AlphaMax {
			marker = "  <-- exceeds α_max: UNSAFE at this leak size"
		}
		fmt.Printf("  %5.1f%% leak: α = %.3f ± %.3f%s\n", p.Fraction*100, p.AlphaMean, p.AlphaStd, marker)
	}

	// Step 3 — a concrete attack with the 10% leak, end to end through real
	// anonymization: the hacker's crack guesses are checked against the key.
	release, key, err := anonrisk.Anonymize(db, rng)
	if err != nil {
		log.Fatal(err)
	}
	leak, err := sample(db, 0.1, rng)
	if err != nil {
		log.Fatal(err)
	}
	bf := anonrisk.BeliefFromSample(leak)
	rep, err := anonrisk.AttackTableCtx(ctx, bf, db.Table(), anonrisk.AttackOptions{Simulate: true, Rng: rng})
	if err != nil {
		log.Fatal(err)
	}
	if rep.Infeasible {
		fmt.Printf("\nattack with a 10%% leak: O-estimate %.1f cracks of %d codes "+
			"(per-item §5.3 estimate; the wrong guesses admit no global mapping)\n",
			rep.OEstimate, rep.Items)
	} else {
		fmt.Printf("\nattack with a 10%% leak: O-estimate %.1f cracks, simulated %.1f ± %.1f (of %d codes)\n",
			rep.OEstimate, rep.Simulated, rep.SimulatedStdDev, rep.Items)
	}

	// Sanity: the released database is still useful to the analytics firm.
	sets, err := anonrisk.MineFrequentItemsets(release, 0.02)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("meanwhile the firm mines %d frequent code-sets at 2%% support from the release\n", len(sets))
	_ = key
}

// sample draws a transaction sample through the public Database API.
func sample(db *anonrisk.Database, fraction float64, rng *rand.Rand) (*anonrisk.Database, error) {
	k := int(float64(db.Transactions())*fraction + 0.5)
	idx := rng.Perm(db.Transactions())[:k]
	txs := make([]anonrisk.Transaction, k)
	for i, j := range idx {
		txs[i] = db.Transaction(j)
	}
	return anonrisk.NewDatabase(db.Items(), txs)
}
