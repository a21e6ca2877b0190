package itemsetrisk

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// paperClosingExample builds the situation of the paper's §8.2 closing
// remark (the Figure 6(b) groups): items 0,1 share a frequency, items 2,3
// share another, and item-level knowledge cannot tell 0 from 1. Pair
// knowledge about {0, 1} does not split them (the pair maps to itself as a
// set) — but pair knowledge involving a *distinguishable* partner does.
func paperClosingExample(t testing.TB) (*dataset.Database, *bipartite.Explicit, *PairTable) {
	t.Helper()
	// counts: 0,1 -> 4 of 8; 2,3 -> 2 of 8. Pair supports engineered so that
	// (0,2) co-occur twice but (1,2) never.
	db := dataset.MustNew(4, []dataset.Transaction{
		{0, 2}, {0, 2}, {0, 1}, {0, 1}, {1, 3}, {1, 3}, {0, 3}, {1, 2, 3},
	})
	counts := db.SupportCounts()
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("construction broken: counts %v", counts)
	}
	ft := db.Table()
	g, err := bipartite.Build(belief.PointValued(ft.Frequencies()), dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	return db, g.ToExplicit(), mustPairs(t, db)
}

func TestPruneSplitsEqualFrequencyPair(t *testing.T) {
	db, e, pairs := paperClosingExample(t)
	m := db.Transactions()
	// Item-level: 0 and 1 are mutual candidates.
	if !e.HasEdge(0, 1) || !e.HasEdge(1, 0) {
		t.Fatal("expected items 0,1 to camouflage each other at item level")
	}
	// The hacker knows the exact support of {0, 2}.
	beliefs := ExactPairBeliefs(pairs, m, [][2]int{{0, 2}}, 0.01)
	pruned, removed, err := PruneWithPairBeliefsCtx(context.Background(), e, pairs, m, beliefs)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("pair belief should prune something")
	}
	// sup({0,2}) = 2/8; sup({1,2}) = 1/8 and sup({1,3})=2/8... the edge
	// (1', 0) requires a witness w2 for item 2 with pair support 2/8 with
	// anonymized 1'. Candidates of 2 are {2', 3'}; sup(1,2)=1/8, sup(1,3)=3/8.
	// Neither matches 2/8, so (1', 0) must be gone while (0', 0) survives.
	if pruned.HasEdge(1, 0) {
		t.Error("edge (1',0) should be pruned by the {0,2} belief")
	}
	if !pruned.HasEdge(0, 0) {
		t.Error("edge (0',0) must survive (it has the witness)")
	}
	// The disclosure estimate rises accordingly.
	before, err := core.OEstimateExplicitCtx(context.Background(), e, core.OEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := core.OEstimateExplicitCtx(context.Background(), pruned, core.OEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Value <= before.Value {
		t.Errorf("pair knowledge should raise the estimate: %v -> %v", before.Value, after.Value)
	}
}

// TestPruneSoundness verifies, by brute force, that pruned edges belong to
// no crack mapping satisfying every pair belief.
func TestPruneSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		db, err := datagen.Quest(datagen.QuestConfig{Items: 6, Transactions: 40}, rng)
		if err != nil {
			t.Fatal(err)
		}
		ft := db.Table()
		g, err := bipartite.Build(belief.UniformWidth(ft.Frequencies(), 0.1), dataset.GroupItems(ft))
		if err != nil {
			t.Fatal(err)
		}
		e := g.ToExplicit()
		pairs := mustPairs(t, db)
		// Believe two random true pairs with small slack.
		var which [][2]int
		for len(which) < 2 {
			a, b := rng.Intn(6), rng.Intn(6)
			if a != b {
				which = append(which, [2]int{a, b})
			}
		}
		beliefs := ExactPairBeliefs(pairs, db.Transactions(), which, 0.02)
		pruned, _, err := PruneWithPairBeliefsCtx(context.Background(), e, pairs, db.Transactions(), beliefs)
		if err != nil {
			t.Fatal(err)
		}
		// Enumerate matchings of the ORIGINAL graph that satisfy every
		// belief; each such matching must use only surviving edges.
		m := float64(db.Transactions())
		err = e.EnumeratePerfectMatchingsCtx(context.Background(), 0, func(match []int) {
			for _, pb := range beliefs {
				// match maps anonymized -> item; invert for item -> anon.
				wa, wb := -1, -1
				for w, x := range match {
					if x == pb.A {
						wa = w
					}
					if x == pb.B {
						wb = w
					}
				}
				if wa < 0 || wb < 0 || !pb.Iv.Contains(float64(pairs.Support(wa, wb))/m) {
					return // mapping violates a belief; irrelevant
				}
			}
			for w, x := range match {
				if !pruned.HasEdge(w, x) {
					t.Fatalf("trial %d: consistent mapping uses pruned edge (%d,%d)", trial, w, x)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPruneValidation(t *testing.T) {
	db := dataset.MustNew(3, []dataset.Transaction{{0, 1}, {1, 2}})
	pairs := mustPairs(t, db)
	e := bipartite.Complete(3)
	if _, _, err := PruneWithPairBeliefsCtx(context.Background(), e, pairs, 0, nil); err == nil {
		t.Error("0 transactions: want error")
	}
	if _, _, err := PruneWithPairBeliefsCtx(context.Background(), e, pairs, 2, []PairBelief{{A: 0, B: 0}}); err == nil {
		t.Error("self pair: want error")
	}
	if _, _, err := PruneWithPairBeliefsCtx(context.Background(), e, pairs, 2, []PairBelief{{A: 0, B: 9}}); err == nil {
		t.Error("out-of-range pair: want error")
	}
	other := mustPairs(t, dataset.MustNew(4, []dataset.Transaction{{0, 1, 2, 3}}))
	if _, _, err := PruneWithPairBeliefsCtx(context.Background(), e, other, 2, nil); err == nil {
		t.Error("domain mismatch: want error")
	}
	// No beliefs: graph unchanged.
	same, removed, err := PruneWithPairBeliefsCtx(context.Background(), e, pairs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 || same.NumEdges() != e.NumEdges() {
		t.Errorf("no-belief pruning changed the graph (removed %d)", removed)
	}
}
