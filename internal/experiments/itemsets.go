package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fim"
	"repro/internal/itemsetrisk"
)

// RunItemsets quantifies the paper's Section 8.2 extension on the small and
// mid-size benchmarks: how much additional identity disclosure a hacker gains
// from exact 2-itemset (pairwise support) knowledge on top of exact item
// frequencies, and how many frequent itemsets are uniquely identified as sets
// by their observable signatures.
func RunItemsets(ctx context.Context, cfg Config) (*Report, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{ID: "itemsets", Title: "§8.2 extension: itemset-level identity disclosure"}
	tb := Table{
		Header: []string{"dataset", "n", "item groups g", "pair classes", "rounds",
			"E(X) items", "E(X) pairs-aware", "itemsets@35%", "identified", "identified %"},
	}
	names := []string{"CHESS", "MUSHROOM", "CONNECT"}
	if cfg.Quick {
		names = names[:2]
	}
	for _, name := range names {
		plan, _ := datagen.ByName(name)
		db, err := plan.Database(rng)
		if err != nil {
			return nil, err
		}
		gr := dataset.GroupItems(db.Table())
		cracks, ref, err := itemsetrisk.ExpectedCracksPairAware(ctx, db, 0)
		if err != nil {
			return nil, err
		}
		minsup, err := fim.AbsoluteSupport(db, 0.35)
		if err != nil {
			return nil, err
		}
		sets, err := fim.FPGrowth(db, minsup)
		if err != nil {
			return nil, err
		}
		// Keep only sets of size >= 2: singletons duplicate the item story.
		var multi []fim.FrequentItemset
		for _, fs := range sets {
			if len(fs.Items) >= 2 {
				multi = append(multi, fs)
			}
		}
		ident, total := itemsetrisk.IdentifiedItemsets(multi, ref.Colors)
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(ident) / float64(total)
		}
		tb.Rows = append(tb.Rows, []string{
			name, fmt.Sprint(db.Items()), fmt.Sprint(gr.NumGroups()),
			fmt.Sprint(ref.Classes), fmt.Sprint(ref.Rounds),
			f2(float64(gr.NumGroups())), f2(cracks),
			fmt.Sprint(total), fmt.Sprint(ident), f2(pct),
		})
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Notes = append(rep.Notes,
		"pair classes: partition of the domain under pairwise-support color refinement, starting from frequency groups — the 2-itemset analogue of Lemma 3's g",
		"E(X) pairs-aware = pair classes; the paper's closing example ({1',2'} maps indisputably to {1,2}) is the size-2 instance of 'identified' itemsets",
		"planted benchmarks place items into transactions independently, so pair supports are near-generic and refinement splits most groups — equal-frequency camouflage does not survive itemset-level knowledge")
	return rep, nil
}
