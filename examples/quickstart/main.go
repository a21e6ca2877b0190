// Quickstart: generate a small transaction database, anonymize it, measure
// what hackers of increasing sophistication would learn, and run the paper's
// Assess-Risk recipe to decide whether the release is safe.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	anonrisk "repro"
	"repro/internal/datagen"
)

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))

	// A correlated market-basket database: 60 products, 4000 baskets.
	db, err := datagen.Quest(datagen.QuestConfig{Items: 60, Transactions: 4000}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(anonrisk.ComputeStats("quickstart", db))

	// The owner anonymizes and would ship `release`; `key` stays secret.
	release, key, err := anonrisk.Anonymize(db, rng)
	if err != nil {
		log.Fatal(err)
	}
	sets, err := anonrisk.MineFrequentItemsets(release, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthe release still mines fine: %d frequent itemsets at 5%% support\n", len(sets))
	_ = key

	// How bad can it get? Three hackers.
	for _, h := range []struct {
		name string
		bf   *anonrisk.BeliefFunction
	}{
		{"ignorant (no prior knowledge)", anonrisk.Ignorant(db.Items())},
		{"ballpark (±δ_med around every true frequency)", anonrisk.BallparkKnowledge(db, 0)},
		{"omniscient (every frequency exactly)", anonrisk.ExactKnowledge(db)},
	} {
		rep, err := anonrisk.AttackTableCtx(ctx, h.bf, db.Table(), anonrisk.AttackOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-48s expected cracks %6.2f of %d items (%.1f%%), %d forced\n",
			h.name, rep.OEstimate, rep.Items, 100*rep.OEstimateFraction(), rep.ForcedCracks)
	}

	// The owner's decision at a 10% crack tolerance.
	res, err := anonrisk.AssessRiskCtx(ctx, db, anonrisk.AssessOptions{Tolerance: 0.10, Propagate: true, Rng: rng})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAssess-Risk at τ=0.10: stage=%q α_max=%.2f\n", res.Stage, res.AlphaMax)
	if res.Disclose {
		fmt.Println("verdict: DISCLOSE — the anonymized release is within tolerance")
	} else {
		fmt.Println("verdict: WITHHOLD — a moderately informed hacker cracks too much")
	}
}
