package dataset_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// groupItemsOracle is GroupItems as first written: one map entry per
// distinct count, whose member slice grows by append and is sorted at the
// end. It returns the groups and each item's group index.
func groupItemsOracle(ft *dataset.FrequencyTable) ([]dataset.Group, []int) {
	byCount := make(map[int][]int)
	for x, c := range ft.Counts {
		byCount[c] = append(byCount[c], x)
	}
	counts := make([]int, 0, len(byCount))
	for c := range byCount {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	groups := make([]dataset.Group, 0, len(counts))
	itemGroup := make([]int, ft.NItems)
	m := float64(ft.NTransactions)
	for gi, c := range counts {
		items := byCount[c]
		sort.Ints(items)
		groups = append(groups, dataset.Group{Count: c, Items: items, Freq: float64(c) / m})
		for _, x := range items {
			itemGroup[x] = gi
		}
	}
	return groups, itemGroup
}

// checkGroupingMatchesOracle compares GroupItems with groupItemsOracle
// field by field and checks that every group's Items has cap == len, so an
// append to one group can never write into the next.
func checkGroupingMatchesOracle(t *testing.T, name string, ft *dataset.FrequencyTable) {
	t.Helper()
	gr := dataset.GroupItems(ft)
	wantGroups, wantItemGroup := groupItemsOracle(ft)
	if gr.NTransactions != ft.NTransactions || gr.NumItems() != ft.NItems {
		t.Fatalf("%s: NTransactions %d, NumItems %d; want %d, %d",
			name, gr.NTransactions, gr.NumItems(), ft.NTransactions, ft.NItems)
	}
	if !reflect.DeepEqual(gr.Groups, wantGroups) {
		t.Fatalf("%s: groups differ from the oracle:\n got %v\nwant %v", name, gr.Groups, wantGroups)
	}
	for x, want := range wantItemGroup {
		if got := gr.GroupOf(x); got != want {
			t.Fatalf("%s: GroupOf(%d) = %d, want %d", name, x, got, want)
		}
	}
	for gi, g := range gr.Groups {
		if cap(g.Items) != len(g.Items) {
			t.Fatalf("%s: group %d: cap %d != len %d", name, gi, cap(g.Items), len(g.Items))
		}
	}
}

// TestGroupItemsMatchesOracle runs GroupItems against groupItemsOracle on
// random tables, from all-distinct to all-equal counts, and on the datagen
// RETAIL and PUMSB profiles.
func TestGroupItemsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		m := 1 + rng.Intn(1+rng.Intn(2*n)) // few or many distinct counts
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft, err := dataset.NewTable(m, counts)
		if err != nil {
			t.Fatal(err)
		}
		checkGroupingMatchesOracle(t, "random", ft)
	}
	for _, plan := range []datagen.GroupPlan{datagen.RETAIL, datagen.PUMSB} {
		ft, err := plan.Counts(rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		checkGroupingMatchesOracle(t, plan.Name, ft)
	}
}
