package anonrisk_test

import (
	"context"
	"fmt"
	"math/rand"

	anonrisk "repro"
)

// bigMart is the paper's Figure 1 running example: six items over ten
// transactions with frequencies (.5, .4, .5, .5, .3, .5).
func bigMart() *anonrisk.Database {
	db, err := anonrisk.NewDatabase(6, []anonrisk.Transaction{
		{0, 1, 2}, {0, 1, 2}, {0, 1, 3}, {0, 1, 3}, {0, 3, 5},
		{2, 3, 5}, {2, 4, 5}, {2, 5}, {4, 5}, {3, 4},
	})
	if err != nil {
		panic(err)
	}
	return db
}

// The two extremes of hacker knowledge, straight from Lemmas 1 and 3.
func ExampleExpectedCracksIgnorant() {
	db := bigMart()
	fmt.Printf("ignorant hacker: %.0f expected crack\n", anonrisk.ExpectedCracksIgnorant(db.Items()))
	fmt.Printf("omniscient hacker: %.0f expected cracks (one per frequency group)\n",
		anonrisk.ExpectedCracksExactKnowledge(db))
	// Output:
	// ignorant hacker: 1 expected crack
	// omniscient hacker: 3 expected cracks (one per frequency group)
}

// AttackTableCtx quantifies a concrete hacker against a release.
func ExampleAttackTableCtx() {
	db := bigMart()
	rep, err := anonrisk.AttackTableCtx(context.Background(), anonrisk.ExactKnowledge(db), db.Table(), anonrisk.AttackOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("expected cracks %.0f of %d items; %d identified with certainty\n",
		rep.OEstimate, rep.Items, rep.ForcedCracks)
	// Output:
	// expected cracks 3 of 6 items; 2 identified with certainty
}

// AssessRiskCtx runs the paper's Figure 8 recipe end to end.
func ExampleAssessRiskCtx() {
	// A flat release: every item equally frequent, one frequency group.
	var txs []anonrisk.Transaction
	for i := 0; i < 10; i++ {
		txs = append(txs, anonrisk.Transaction{0, 1, 2, 3, 4})
	}
	db, err := anonrisk.NewDatabase(5, txs)
	if err != nil {
		panic(err)
	}
	res, err := anonrisk.AssessRiskCtx(context.Background(), db, anonrisk.AssessOptions{
		Tolerance: 0.25,
		Propagate: true,
		Rng:       rand.New(rand.NewSource(1)),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("disclose=%v (decided by: %s)\n", res.Disclose, res.Stage)
	// Output:
	// disclose=true (decided by: point-valued worst case within tolerance)
}

// Anonymization keeps mining results intact — that is the whole dilemma.
func ExampleAnonymize() {
	db := bigMart()
	rng := rand.New(rand.NewSource(7))
	release, _, err := anonrisk.Anonymize(db, rng)
	if err != nil {
		panic(err)
	}
	before, _ := anonrisk.MineFrequentItemsets(db, 0.3)
	after, _ := anonrisk.MineFrequentItemsets(release, 0.3)
	fmt.Printf("frequent itemsets before: %d, after anonymization: %d\n", len(before), len(after))
	// Output:
	// frequent itemsets before: 9, after anonymization: 9
}
