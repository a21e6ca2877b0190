package fim

import (
	"math/rand"
	"testing"

	"repro/internal/anonymize"
	"repro/internal/dataset"
)

func TestItemsetBasics(t *testing.T) {
	s := NewItemset(3, 1, 3, 2)
	if !s.Equal(Itemset{1, 2, 3}) {
		t.Errorf("NewItemset = %v, want {1,2,3}", s)
	}
	if !s.Contains(2) || s.Contains(4) {
		t.Error("Contains wrong")
	}
	if !NewItemset(1, 3).SubsetOf(s) || NewItemset(1, 4).SubsetOf(s) {
		t.Error("SubsetOf wrong")
	}
	if NewItemset().SubsetOf(s) != true {
		t.Error("empty set is a subset of everything")
	}
	if s.Key() != "1,2,3" {
		t.Errorf("Key = %q, want 1,2,3", s.Key())
	}
	if s.String() != "{1,2,3}" {
		t.Errorf("String = %q", s.String())
	}
	if NewItemset(0).Key() != "0" {
		t.Errorf("Key(0) = %q", NewItemset(0).Key())
	}
	mapped := s.Map([]int{9, 5, 7, 6})
	if !mapped.Equal(Itemset{5, 6, 7}) {
		t.Errorf("Map = %v, want {5,6,7}", mapped)
	}
}

// classicDB is the textbook FP-growth example.
func classicDB(t testing.TB) *dataset.Database {
	t.Helper()
	return dataset.MustNew(6, []dataset.Transaction{
		{0, 1, 4},
		{1, 3},
		{1, 2},
		{0, 1, 3},
		{0, 2},
		{1, 2},
		{0, 2},
		{0, 1, 2, 4},
		{0, 1, 2},
	})
}

func TestAprioriClassicExample(t *testing.T) {
	sets, err := Apriori(classicDB(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"0": 6, "1": 7, "2": 6, "3": 2, "4": 2,
		"0,1": 4, "0,2": 4, "0,4": 2, "1,2": 4, "1,3": 2, "1,4": 2,
		"0,1,2": 2, "0,1,4": 2,
	}
	got := map[string]int{}
	for _, fs := range sets {
		got[fs.Items.Key()] = fs.Support
	}
	if len(got) != len(want) {
		t.Fatalf("got %d itemsets %v, want %d", len(got), got, len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("support(%s) = %d, want %d", k, got[k], v)
		}
	}
}

func TestAprioriValidation(t *testing.T) {
	if _, err := Apriori(classicDB(t), 0); err == nil {
		t.Error("minSupport 0: want error")
	}
	if _, err := FPGrowth(classicDB(t), 0); err == nil {
		t.Error("minSupport 0: want error")
	}
}

func TestAprioriHighSupportEmpty(t *testing.T) {
	sets, err := Apriori(classicDB(t), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 0 {
		t.Errorf("got %d itemsets, want none", len(sets))
	}
}

func TestFPGrowthMatchesApriori(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(10)
		var txs []dataset.Transaction
		for i := 0; i < 30+rng.Intn(60); i++ {
			l := 1 + rng.Intn(6)
			tx := make(dataset.Transaction, l)
			for j := range tx {
				tx[j] = dataset.Item(rng.Intn(n))
			}
			txs = append(txs, tx)
		}
		db := dataset.MustNew(n, txs)
		minSup := 1 + rng.Intn(8)
		a, err := Apriori(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		f, err := FPGrowth(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(f) {
			t.Fatalf("trial %d (minSup %d): Apriori %d sets, FPGrowth %d", trial, minSup, len(a), len(f))
		}
		for i := range a {
			if !a[i].Items.Equal(f[i].Items) || a[i].Support != f[i].Support {
				t.Fatalf("trial %d: mismatch at %d: %v/%d vs %v/%d",
					trial, i, a[i].Items, a[i].Support, f[i].Items, f[i].Support)
			}
		}
	}
}

func TestDownwardClosure(t *testing.T) {
	// Every subset of a frequent itemset is frequent with >= support.
	rng := rand.New(rand.NewSource(17))
	n := 8
	var txs []dataset.Transaction
	for i := 0; i < 80; i++ {
		l := 1 + rng.Intn(5)
		tx := make(dataset.Transaction, l)
		for j := range tx {
			tx[j] = dataset.Item(rng.Intn(n))
		}
		txs = append(txs, tx)
	}
	db := dataset.MustNew(n, txs)
	sets, err := Apriori(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	support := map[string]int{}
	for _, fs := range sets {
		support[fs.Items.Key()] = fs.Support
	}
	for _, fs := range sets {
		if len(fs.Items) < 2 {
			continue
		}
		for drop := range fs.Items {
			sub := make(Itemset, 0, len(fs.Items)-1)
			for i, x := range fs.Items {
				if i != drop {
					sub = append(sub, x)
				}
			}
			subSup, ok := support[sub.Key()]
			if !ok {
				t.Fatalf("subset %v of frequent %v missing", sub, fs.Items)
			}
			if subSup < fs.Support {
				t.Fatalf("support(%v) = %d < support(%v) = %d", sub, subSup, fs.Items, fs.Support)
			}
		}
	}
}

func TestMiningCommutesWithAnonymization(t *testing.T) {
	// The load-bearing invariant of the paper's setting: mining an anonymized
	// database yields exactly the images of the original frequent itemsets.
	rng := rand.New(rand.NewSource(19))
	db := classicDB(t)
	m := anonymize.NewRandomMapping(db.Items(), rng)
	anonDB, err := m.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Apriori(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := Apriori(anonDB, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != len(anon) {
		t.Fatalf("itemset counts differ: %d vs %d", len(orig), len(anon))
	}
	anonSupport := map[string]int{}
	for _, fs := range anon {
		anonSupport[fs.Items.Key()] = fs.Support
	}
	for _, fs := range orig {
		img := fs.Items.Map(m.ToAnon)
		if got, ok := anonSupport[img.Key()]; !ok || got != fs.Support {
			t.Errorf("image %v of %v has support %d, want %d", img, fs.Items, got, fs.Support)
		}
	}
}

func TestAbsoluteSupport(t *testing.T) {
	db := classicDB(t) // 9 transactions
	if s, err := AbsoluteSupport(db, 0.25); err != nil || s != 3 {
		t.Errorf("AbsoluteSupport(0.25) = %d (%v), want 3", s, err)
	}
	if s, err := AbsoluteSupport(db, 1.0); err != nil || s != 9 {
		t.Errorf("AbsoluteSupport(1.0) = %d (%v), want 9", s, err)
	}
	if s, err := AbsoluteSupport(db, 0.0001); err != nil || s != 1 {
		t.Errorf("AbsoluteSupport(tiny) = %d (%v), want 1", s, err)
	}
	if _, err := AbsoluteSupport(db, 0); err == nil {
		t.Error("fraction 0: want error")
	}
	if _, err := AbsoluteSupport(db, 1.5); err == nil {
		t.Error("fraction > 1: want error")
	}
}

func TestSortItemsets(t *testing.T) {
	sets := []FrequentItemset{
		{Items: Itemset{1, 2}, Support: 5},
		{Items: Itemset{0}, Support: 9},
		{Items: Itemset{1}, Support: 7},
		{Items: Itemset{0, 3}, Support: 2},
	}
	SortItemsets(sets)
	wantOrder := []string{"0", "1", "0,3", "1,2"}
	for i, w := range wantOrder {
		if sets[i].Items.Key() != w {
			t.Errorf("position %d = %s, want %s", i, sets[i].Items.Key(), w)
		}
	}
}
