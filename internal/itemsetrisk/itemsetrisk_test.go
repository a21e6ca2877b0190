package itemsetrisk

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/anonymize"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fim"
)

// mustPairs counts db's pair supports under a background context.
func mustPairs(t testing.TB, db *dataset.Database) *PairTable {
	t.Helper()
	pt, err := ComputePairsCtx(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestPairTableBasics(t *testing.T) {
	db := dataset.MustNew(4, []dataset.Transaction{
		{0, 1, 2}, {0, 1}, {2, 3}, {0, 2},
	})
	pt := mustPairs(t, db)
	want := map[[2]int]int{
		{0, 1}: 2, {0, 2}: 2, {1, 2}: 1, {2, 3}: 1,
	}
	for pair, w := range want {
		if got := pt.Support(pair[0], pair[1]); got != w {
			t.Errorf("Support(%d,%d) = %d, want %d", pair[0], pair[1], got, w)
		}
		if got := pt.Support(pair[1], pair[0]); got != w {
			t.Errorf("Support symmetric (%d,%d) = %d, want %d", pair[1], pair[0], got, w)
		}
	}
	if pt.Support(0, 3) != 0 {
		t.Errorf("Support(0,3) = %d, want 0", pt.Support(0, 3))
	}
	if pt.Pairs() != 4 {
		t.Errorf("Pairs = %d, want 4", pt.Pairs())
	}
	defer func() {
		if recover() == nil {
			t.Error("Support(x,x) should panic")
		}
	}()
	pt.Support(1, 1)
}

func TestRefineSplitsEqualFrequencies(t *testing.T) {
	// Items 0 and 1 share a frequency; so do 2 and 3. Pair structure breaks
	// the first tie ({0,2} co-occurs, {1,2} does not) but items 2,3 are
	// exchangeable, staying merged.
	db := dataset.MustNew(4, []dataset.Transaction{
		{0, 2}, {0, 3}, {1}, {2}, {3}, {0, 1},
	})
	// counts: 0 -> 3, 1 -> 2, 2 -> 2, 3 -> 2. Groups: {0}, {1,2,3}.
	gr := dataset.GroupItems(db.Table())
	if gr.NumGroups() != 2 {
		t.Fatalf("groups = %d, want 2", gr.NumGroups())
	}
	cracks, ref, err := ExpectedCracksPairAware(context.Background(), db, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pair supports: (0,1)=1, (0,2)=1, (0,3)=1, others 0. Items 1,2,3 all
	// co-occur once with item 0 and never with each other: exchangeable.
	if ref.Classes != 2 || cracks != 2 {
		t.Fatalf("classes = %d (cracks %v), want 2 — items 1,2,3 are exchangeable", ref.Classes, cracks)
	}
	// Now give item 1 a second co-occurrence with 0: splits {1} from {2,3}.
	db2 := dataset.MustNew(4, []dataset.Transaction{
		{0, 2}, {0, 3}, {0, 1}, {0, 1}, {2}, {3},
	})
	// counts: 0 -> 4, 1 -> 2, 2 -> 2, 3 -> 2; pair(0,1)=2, pair(0,2)=1=pair(0,3).
	_, ref2, err := ExpectedCracksPairAware(context.Background(), db2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref2.Classes != 3 {
		t.Fatalf("classes = %d, want 3 ({0}, {1}, {2,3})", ref2.Classes)
	}
	if ref2.Colors[2] != ref2.Colors[3] || ref2.Colors[1] == ref2.Colors[2] {
		t.Errorf("colors = %v: want 2,3 merged and 1 separate", ref2.Colors)
	}
}

func TestRefineNeverCoarserThanGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		db, err := datagen.Quest(datagen.QuestConfig{Items: 12 + rng.Intn(20), Transactions: 100}, rng)
		if err != nil {
			t.Fatal(err)
		}
		gr := dataset.GroupItems(db.Table())
		_, ref, err := ExpectedCracksPairAware(context.Background(), db, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Classes < gr.NumGroups() {
			t.Fatalf("trial %d: %d classes < %d groups", trial, ref.Classes, gr.NumGroups())
		}
		// Refinement must respect the initial grouping: same class implies
		// same frequency group.
		for x := 0; x < db.Items(); x++ {
			for y := x + 1; y < db.Items(); y++ {
				if ref.Colors[x] == ref.Colors[y] && gr.GroupOf(x) != gr.GroupOf(y) {
					t.Fatalf("trial %d: items %d,%d share a class across groups", trial, x, y)
				}
			}
		}
	}
}

func TestRefineRoundCap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db, err := datagen.Quest(datagen.QuestConfig{Items: 20, Transactions: 200}, rng)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RefineCtx(context.Background(), db.Table(), mustPairs(t, db), 0)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := RefineCtx(context.Background(), db.Table(), mustPairs(t, db), 1)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Rounds > 1 {
		t.Errorf("capped refinement ran %d rounds", capped.Rounds)
	}
	if capped.Classes > full.Classes {
		t.Errorf("capped classes %d > full classes %d", capped.Classes, full.Classes)
	}
}

func TestRefineDomainMismatch(t *testing.T) {
	db := dataset.MustNew(3, []dataset.Transaction{{0, 1, 2}})
	other := dataset.MustNew(4, []dataset.Transaction{{0, 1, 2, 3}})
	if _, err := RefineCtx(context.Background(), db.Table(), mustPairs(t, other), 0); err == nil {
		t.Error("mismatched domains: want error")
	}
}

// TestRefinementIsAnonymizationInvariant is the load-bearing property: the
// partition computed on the anonymized release equals the image of the
// original partition under the secret mapping, so the hacker really can
// observe it.
func TestRefinementIsAnonymizationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		db, err := datagen.Quest(datagen.QuestConfig{Items: 15, Transactions: 150}, rng)
		if err != nil {
			t.Fatal(err)
		}
		key := anonymize.NewRandomMapping(db.Items(), rng)
		anonDB, err := key.Apply(db)
		if err != nil {
			t.Fatal(err)
		}
		_, orig, err := ExpectedCracksPairAware(context.Background(), db, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, anon, err := ExpectedCracksPairAware(context.Background(), anonDB, 0)
		if err != nil {
			t.Fatal(err)
		}
		if orig.Classes != anon.Classes {
			t.Fatalf("trial %d: classes changed under anonymization: %d vs %d", trial, orig.Classes, anon.Classes)
		}
		// Same-class relations must transport through the key.
		n := db.Items()
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				same := orig.Colors[x] == orig.Colors[y]
				sameAnon := anon.Colors[key.ToAnon[x]] == anon.Colors[key.ToAnon[y]]
				if same != sameAnon {
					t.Fatalf("trial %d: class relation of (%d,%d) broke under anonymization", trial, x, y)
				}
			}
		}
	}
}

func TestIdentifiedItemsets(t *testing.T) {
	// Colors: 0 and 1 share class 0; 2 is class 1; 3 is class 2.
	colors := []int{0, 0, 1, 2}
	sets := []fim.FrequentItemset{
		{Items: fim.Itemset{0, 2}, Support: 5}, // sig (2,5,{0,1})
		{Items: fim.Itemset{1, 2}, Support: 5}, // same sig -> ambiguous
		{Items: fim.Itemset{0, 3}, Support: 5}, // sig (2,5,{0,2}) -> unique
		{Items: fim.Itemset{2, 3}, Support: 4}, // unique
		{Items: fim.Itemset{0, 1}, Support: 3}, // unique even within one class
	}
	ident, total := IdentifiedItemsets(sets, colors)
	if total != 5 || ident != 3 {
		t.Errorf("identified %d of %d, want 3 of 5", ident, total)
	}
	if id, tot := IdentifiedItemsets(nil, colors); id != 0 || tot != 0 {
		t.Errorf("empty input: %d/%d", id, tot)
	}
}

func TestPairAwareAtLeastItemLevelOnBenchmarks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	plan := datagen.GroupPlan{Name: "small", Items: 60, Transactions: 500, Groups: 20, Singletons: 10,
		MedianGapFreq: 0.01, MeanGapFreq: 0.03}
	db, err := plan.Database(rng)
	if err != nil {
		t.Fatal(err)
	}
	gr := dataset.GroupItems(db.Table())
	cracks, ref, err := ExpectedCracksPairAware(context.Background(), db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cracks < float64(gr.NumGroups()) {
		t.Errorf("pair-aware cracks %v < item-level g %d", cracks, gr.NumGroups())
	}
	if ref.Classes > db.Items() {
		t.Errorf("classes %d > n %d", ref.Classes, db.Items())
	}
}
