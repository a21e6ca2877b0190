package dataset

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func mustTable(t *testing.T, m int, counts []int) *FrequencyTable {
	t.Helper()
	ft, err := NewTable(m, counts)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return ft
}

func TestDiffValidateRejections(t *testing.T) {
	base := []int{0, 3, 5, 10}
	cases := []struct {
		name string
		d    CountsDiff
	}{
		{"negative count", CountsDiff{Items: []int{1}, Deltas: []int{-4}}},
		{"past NTransactions", CountsDiff{Items: []int{2}, Deltas: []int{6}}},
		{"past shrunk total", CountsDiff{DTransactions: -1, Items: []int{3}, Deltas: []int{1}}},
		{"untouched past shrunk total", CountsDiff{DTransactions: -3, Items: []int{1}, Deltas: []int{1}}},
		{"zero delta", CountsDiff{Items: []int{1}, Deltas: []int{0}}},
		{"item out of range", CountsDiff{Items: []int{4}, Deltas: []int{1}}},
		{"negative item", CountsDiff{Items: []int{-1}, Deltas: []int{1}}},
		{"not ascending", CountsDiff{Items: []int{2, 1}, Deltas: []int{1, 1}}},
		{"duplicate item", CountsDiff{Items: []int{1, 1}, Deltas: []int{1, 1}}},
		{"length mismatch", CountsDiff{Items: []int{1, 2}, Deltas: []int{1}}},
		{"total to zero", CountsDiff{DTransactions: -10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ft := mustTable(t, 10, slices.Clone(base))
			err := ft.ApplyDiff(&tc.d)
			if !errors.Is(err, ErrDiffMismatch) {
				t.Fatalf("ApplyDiff: got %v, want ErrDiffMismatch", err)
			}
			// A rejected diff must leave the table untouched.
			if ft.NTransactions != 10 || !reflect.DeepEqual(ft.Counts, base) {
				t.Fatalf("table mutated by rejected diff: m=%d counts=%v", ft.NTransactions, ft.Counts)
			}
		})
	}
}

func TestApplyDiffDigestMatchesRebuild(t *testing.T) {
	ft := mustTable(t, 10, []int{0, 3, 5, 10})
	pre := ft.Digest() // warm the memo so a stale value would be observed
	d := &CountsDiff{DTransactions: 2, Items: []int{0, 2}, Deltas: []int{4, -1}}
	if err := ft.ApplyDiff(d); err != nil {
		t.Fatalf("ApplyDiff: %v", err)
	}
	rebuilt := mustTable(t, 12, []int{4, 3, 4, 10})
	if got, want := ft.Digest(), rebuilt.Digest(); got != want {
		t.Fatalf("Digest(apply(diff)) = %s, want Digest(rebuild) = %s", got, want)
	}
	if ft.Digest() == pre {
		t.Fatal("digest memo not invalidated by ApplyDiff")
	}
}

func TestDiffRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		old := randomTable(rng)
		cur := randomTable(rng)
		for cur.NItems != old.NItems {
			cur = randomTable(rng)
		}
		d, err := Diff(old, cur)
		if err != nil {
			t.Fatalf("Diff: %v", err)
		}
		got := old.Clone()
		if err := got.ApplyDiff(d); err != nil {
			t.Fatalf("trial %d: ApplyDiff(Diff(old,cur)): %v", trial, err)
		}
		if got.NTransactions != cur.NTransactions || !reflect.DeepEqual(got.Counts, cur.Counts) {
			t.Fatalf("trial %d: round trip diverged: %v vs %v", trial, got, cur)
		}
		if got.Digest() != cur.Digest() {
			t.Fatalf("trial %d: round-trip digest mismatch", trial)
		}
	}
}

func randomTable(rng *rand.Rand) *FrequencyTable {
	n := 2 + rng.Intn(12)
	m := 4 + rng.Intn(30)
	counts := make([]int, n)
	for x := range counts {
		counts[x] = rng.Intn(m + 1)
	}
	ft, err := NewTable(m, counts)
	if err != nil {
		panic(err)
	}
	return ft
}
