package fim_test

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/fim"
)

// Mining the textbook example at absolute support 4 with FP-Growth; the
// Apriori test oracle produces the identical result.
func ExampleFPGrowth() {
	db := dataset.MustNew(6, []dataset.Transaction{
		{0, 1, 4}, {1, 3}, {1, 2}, {0, 1, 3}, {0, 2},
		{1, 2}, {0, 2}, {0, 1, 2, 4}, {0, 1, 2},
	})
	sets, _ := fim.FPGrowth(db, 4)
	for _, fs := range sets {
		fmt.Printf("%s support=%d\n", fs.Items, fs.Support)
	}
	// Output:
	// {0} support=6
	// {1} support=7
	// {2} support=6
	// {0,1} support=4
	// {0,2} support=4
	// {1,2} support=4
}

// Association rules with at least 90% confidence.
func ExampleRules() {
	db := dataset.MustNew(4, []dataset.Transaction{
		{0, 1}, {0, 1}, {0, 1}, {0, 2}, {1, 3},
	})
	sets, _ := fim.FPGrowth(db, 3)
	rules, _ := fim.Rules(sets, db.Transactions(), 0.7)
	for _, r := range rules {
		fmt.Println(r)
	}
	// Output:
	// {0} => {1} (sup=3 conf=0.750 lift=0.938)
	// {1} => {0} (sup=3 conf=0.750 lift=0.938)
}
