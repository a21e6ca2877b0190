// Command fsmine mines frequent itemsets from a FIMI-format transaction
// database with FP-Growth — the data-mining task the paper's disclosure
// scenarios revolve around.
//
// Usage:
//
//	fsmine [-minsup 0.1] [-top n] [-rules conf] [-timeout 30s] [file]
//
// Exit status: 0 ok, 4 when the -timeout budget runs out mid-mine, 1 for
// other errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/budget"
	"repro/internal/cliutil"
	"repro/internal/dataset"
	"repro/internal/fim"
)

func main() {
	minsup := flag.Float64("minsup", 0.1, "minimum support as a fraction of transactions")
	top := flag.Int("top", 0, "print only the n most frequent itemsets (0 = all)")
	minconf := flag.Float64("rules", 0, "also derive association rules with at least this confidence (0 = off)")
	budgetCtx := cliutil.BudgetFlags()
	flag.Parse()
	ctx, cancel := budgetCtx()
	defer cancel()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	db, err := dataset.ReadFIMI(in, 0)
	if err != nil {
		fatal(err)
	}
	abs, err := fim.AbsoluteSupport(db, *minsup)
	if err != nil {
		fatal(err)
	}

	// The miner is not context-aware; budget.Run bounds it from outside,
	// which is fine because exhaustion exits the process.
	var sets []fim.FrequentItemset
	err = budget.Run(ctx, func() error {
		var merr error
		sets, merr = fim.FPGrowth(db, abs)
		return merr
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("# %d transactions, %d items, minimum support %d (%.4f)\n",
		db.Transactions(), db.Items(), abs, *minsup)
	fmt.Printf("# %d frequent itemsets\n", len(sets))
	allSets := sets
	if *top > 0 && *top < len(sets) {
		byCount := append([]fim.FrequentItemset(nil), sets...)
		sort.Slice(byCount, func(i, j int) bool { return byCount[i].Support > byCount[j].Support })
		sets = byCount[:*top]
	}
	for _, fs := range sets {
		fmt.Printf("%s %d\n", fs.Items.Key(), fs.Support)
	}

	if *minconf > 0 {
		rules, err := fim.Rules(allSets, db.Transactions(), *minconf)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# %d association rules at confidence >= %.2f\n", len(rules), *minconf)
		for _, r := range rules {
			fmt.Println(r)
		}
	}
}

func fatal(err error) {
	cliutil.Fatal("fsmine", err)
}
