// BigMart walks through every worked example of the paper with the library,
// reproducing the exact numbers the text derives:
//
//   - the Figure 1 database and Figure 2 belief functions f, g, h, k;
//   - Lemmas 1 and 3 on the two extremes (1 crack; g = 3 cracks);
//   - the consistency graph of Figure 3 under h;
//   - the chain of Figure 4(a): exactly 74/45 expected cracks vs the
//     O-estimate 197/120;
//   - the propagation cascade of Figure 6(a): O-estimate 25/12 before
//     propagation, exactly 4 after;
//   - the irrelevant-edge example of Figure 6(b): exact expectation 2.
package main

import (
	"context"
	"fmt"
	"log"

	anonrisk "repro"
	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/itemsetrisk"
)

func main() {
	// Figure 1: six items with frequencies (.5, .4, .5, .5, .3, .5)
	// (paper items 1..6 are ids 0..5 here).
	db, err := anonrisk.NewDatabase(6, []anonrisk.Transaction{
		{0, 1, 2}, {0, 1, 2}, {0, 1, 3}, {0, 1, 3}, {0, 3, 5},
		{2, 3, 5}, {2, 4, 5}, {2, 5}, {4, 5}, {3, 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("BigMart frequencies:", db.Frequencies())

	// Figure 2's belief functions.
	f := anonrisk.ExactKnowledge(db) // compliant point-valued
	g := anonrisk.Ignorant(6)
	h, err := anonrisk.NewBelief([]anonrisk.Interval{
		{Lo: 0, Hi: 1}, {Lo: 0.4, Hi: 0.5}, {Lo: 0.5, Hi: 0.5},
		{Lo: 0.4, Hi: 0.6}, {Lo: 0.1, Hi: 0.4}, {Lo: 0.5, Hi: 0.5},
	})
	if err != nil {
		log.Fatal(err)
	}
	k, err := anonrisk.NewBelief([]anonrisk.Interval{
		{Lo: 0.6, Hi: 0.7}, {Lo: 0.1, Hi: 0.3}, {Lo: 0.0, Hi: 0.4},
		{Lo: 0.4, Hi: 0.6}, {Lo: 0.1, Hi: 0.4}, {Lo: 0.5, Hi: 0.5},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compliancy: f=%v g=%v h=%v k=%v (k is 0.5-compliant)\n",
		f.Alpha(db.Frequencies()), g.Alpha(db.Frequencies()),
		h.Alpha(db.Frequencies()), k.Alpha(db.Frequencies()))

	// Section 3: the two extremes.
	fmt.Printf("\nLemma 1 (ignorant):      E(X) = %v\n", anonrisk.ExpectedCracksIgnorant(6))
	fmt.Printf("Lemma 3 (point-valued):  E(X) = g = %v\n", anonrisk.ExpectedCracksExactKnowledge(db))

	// Figure 3: the consistency graph under h. 1' (observed 0.5) can map to
	// items 1,2,3,4,6 of the paper; 2' (0.4) to 1,2,4,5; 5' (0.3) to 1,5.
	graph, err := anonrisk.ConsistencyGraph(h, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFigure 3 bipartite graph under h (paper numbering):")
	for w := 0; w < 6; w++ {
		fmt.Printf("  %d' -> ", w+1)
		for x := 0; x < 6; x++ {
			if graph.HasEdge(w, x) {
				fmt.Printf("%d ", x+1)
			}
		}
		fmt.Println()
	}
	exact, err := core.ExactExpectedCracksCtx(context.Background(), graph.ToExplicit())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact E(X) under h via permanents: %.4f\n", exact)

	// Figure 4(a): the chain example.
	chain := core.Figure4aChain()
	ce, _ := chain.ExpectedCracks()
	oe, _ := chain.OEstimate()
	fmt.Printf("\nFigure 4(a) chain: exact E(X) = %.6f (74/45 = %.6f)\n", ce, 74.0/45)
	fmt.Printf("                   O-estimate = %.6f (197/120 = %.6f)\n", oe, 197.0/120)

	// Figure 6(a): the propagation cascade.
	ft, err := dataset.NewTable(8, []int{1, 2, 3, 4})
	if err != nil {
		log.Fatal(err)
	}
	freqs := ft.Frequencies()
	stairs := belief.MustNew([]belief.Interval{
		{Lo: freqs[0], Hi: freqs[0]}, {Lo: freqs[0], Hi: freqs[1]},
		{Lo: freqs[0], Hi: freqs[2]}, {Lo: freqs[0], Hi: freqs[3]},
	})
	plain, err := core.OEstimateCtx(context.Background(), stairs, ft, core.OEOptions{})
	if err != nil {
		log.Fatal(err)
	}
	prop, err := core.OEstimateCtx(context.Background(), stairs, ft, core.OEOptions{Propagate: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigure 6(a): OE without propagation = %.4f (25/12 = %.4f)\n", plain.Value, 25.0/12)
	fmt.Printf("             OE with propagation    = %.4f (all %d edges forced: every item cracked)\n",
		prop.Value, prop.Forced)

	// Figure 6(b): the irrelevant edge (2', 3).
	e := bipartite.MustExplicit(4, [][]int{{0, 1}, {0, 1, 2}, {2, 3}, {2, 3}})
	exact6b, err := core.ExactExpectedCracksCtx(context.Background(), e)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigure 6(b): exact E(X) = %v — the edge (2',3) is in no perfect matching\n", exact6b)

	// Section 8.2 (ongoing work): itemset-level knowledge. Within BigMart's
	// 0.5-frequency group the items camouflage each other — until the hacker
	// also knows pairwise supports, which the color refinement exploits.
	cracksPairs, ref, err := itemsetrisk.ExpectedCracksPairAware(context.Background(), db, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n§8.2: item-level E(X) = %v; with exact 2-itemset knowledge: %v (%d classes, %d rounds)\n",
		anonrisk.ExpectedCracksExactKnowledge(db), cracksPairs, ref.Classes, ref.Rounds)
}
