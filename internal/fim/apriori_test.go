package fim

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
)

// Apriori mines all itemsets with support count >= minSupport using the
// classic level-wise algorithm: candidates of size k are joined from frequent
// (k-1)-itemsets sharing a (k-2)-prefix, pruned by the downward-closure
// property, and counted in one database pass per level. It is the test
// oracle the FP-Growth, rules, downward-closure and anonymization tests
// compare against; production code mines with FPGrowth.
func Apriori(db *dataset.Database, minSupport int) ([]FrequentItemset, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("fim: minimum support %d, want >= 1", minSupport)
	}
	var result []FrequentItemset

	// Level 1 from support counts.
	counts := db.SupportCounts()
	var frequent []Itemset
	for x, c := range counts {
		if c >= minSupport {
			s := Itemset{dataset.Item(x)}
			frequent = append(frequent, s)
			result = append(result, FrequentItemset{Items: s, Support: c})
		}
	}

	for len(frequent) > 0 {
		candidates := generateCandidates(frequent)
		if len(candidates) == 0 {
			break
		}
		supports := countSupports(db, candidates)
		frequent = frequent[:0]
		for i, c := range candidates {
			if supports[i] >= minSupport {
				frequent = append(frequent, c)
				result = append(result, FrequentItemset{Items: c, Support: supports[i]})
			}
		}
	}
	SortItemsets(result)
	return result, nil
}

// generateCandidates joins frequent (k-1)-itemsets sharing their first k-2
// items and prunes candidates having an infrequent (k-1)-subset.
func generateCandidates(frequent []Itemset) []Itemset {
	sortLex(frequent)
	seen := make(map[string]bool, len(frequent))
	for _, f := range frequent {
		seen[f.Key()] = true
	}
	var candidates []Itemset
	for i := 0; i < len(frequent); i++ {
		for j := i + 1; j < len(frequent); j++ {
			a, b := frequent[i], frequent[j]
			if !samePrefix(a, b) {
				break // sorted order: no later j shares the prefix either
			}
			cand := make(Itemset, 0, len(a)+1)
			cand = append(cand, a...)
			cand = append(cand, b[len(b)-1])
			if allSubsetsFrequent(cand, seen) {
				candidates = append(candidates, cand)
			}
		}
	}
	return candidates
}

// sortLex sorts same-length itemsets lexicographically.
func sortLex(sets []Itemset) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i], sets[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// samePrefix reports whether a and b agree on all but their last element
// (and differ there), the Apriori join condition.
func samePrefix(a, b Itemset) bool {
	for k := 0; k < len(a)-1; k++ {
		if a[k] != b[k] {
			return false
		}
	}
	return a[len(a)-1] != b[len(b)-1]
}

// allSubsetsFrequent checks downward closure: every (k-1)-subset of cand must
// itself be frequent.
func allSubsetsFrequent(cand Itemset, seen map[string]bool) bool {
	sub := make(Itemset, 0, len(cand)-1)
	for drop := range cand {
		sub = sub[:0]
		for i, x := range cand {
			if i != drop {
				sub = append(sub, x)
			}
		}
		if !seen[sub.Key()] {
			return false
		}
	}
	return true
}

// countSupports counts each candidate's support in one database pass,
// indexing candidates by their smallest item to skip impossible checks.
func countSupports(db *dataset.Database, candidates []Itemset) []int {
	supports := make([]int, len(candidates))
	byFirst := make(map[dataset.Item][]int)
	for i, c := range candidates {
		byFirst[c[0]] = append(byFirst[c[0]], i)
	}
	for t := 0; t < db.Transactions(); t++ {
		tx := db.Transaction(t)
		for _, x := range tx {
			for _, ci := range byFirst[x] {
				if candidates[ci].SubsetOf(Itemset(tx)) {
					supports[ci]++
				}
			}
		}
	}
	return supports
}
