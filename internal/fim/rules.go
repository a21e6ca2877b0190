package fim

import (
	"fmt"
	"math/bits"
	"sort"
)

// Rule is an association rule Antecedent ⇒ Consequent with its standard
// quality measures. Support counts are absolute (transactions).
type Rule struct {
	Antecedent Itemset
	Consequent Itemset
	Support    int     // support count of Antecedent ∪ Consequent
	Confidence float64 // Support / support(Antecedent)
	Lift       float64 // Confidence / frequency(Consequent)
}

func (r Rule) String() string {
	return fmt.Sprintf("%s => %s (sup=%d conf=%.3f lift=%.3f)",
		r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift)
}

// Rules derives all association rules with confidence >= minConfidence from
// a collection of frequent itemsets (as produced by FPGrowth over
// nTransactions transactions), using the classic Agrawal–Srikant scheme:
// every non-empty proper subset of a frequent itemset is a candidate
// antecedent, with downward pruning on confidence (if A ⇒ B fails, so does
// every A' ⊂ A with the same union).
func Rules(sets []FrequentItemset, nTransactions int, minConfidence float64) ([]Rule, error) {
	if minConfidence <= 0 || minConfidence > 1 {
		return nil, fmt.Errorf("fim: confidence %v outside (0,1]", minConfidence)
	}
	if nTransactions <= 0 {
		return nil, fmt.Errorf("fim: %d transactions, want > 0", nTransactions)
	}
	support := make(map[string]int, len(sets))
	for _, fs := range sets {
		support[fs.Items.Key()] = fs.Support
	}
	var rules []Rule
	for _, fs := range sets {
		if len(fs.Items) < 2 {
			continue
		}
		if len(fs.Items) > 24 {
			return nil, fmt.Errorf("fim: itemset of size %d too large for rule enumeration", len(fs.Items))
		}
		rules = appendRules(rules, fs, support, nTransactions, minConfidence)
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Confidence != rules[j].Confidence {
			return rules[i].Confidence > rules[j].Confidence
		}
		if rules[i].Support != rules[j].Support {
			return rules[i].Support > rules[j].Support
		}
		return rules[i].Antecedent.Key() < rules[j].Antecedent.Key()
	})
	return rules, nil
}

// appendRules enumerates antecedents of one frequent itemset by descending
// antecedent size, pruning sub-antecedents of failures (shrinking the
// antecedent can only lower confidence, since the union is fixed and the
// antecedent support grows).
func appendRules(rules []Rule, fs FrequentItemset, support map[string]int, m int, minConf float64) []Rule {
	k := len(fs.Items)
	// Enumerate antecedent bitmasks grouped by popcount, largest first.
	bySize := make([][]uint, k)
	for mask := uint(1); mask < uint(1)<<uint(k)-1; mask++ {
		bySize[bits.OnesCount(mask)-1] = append(bySize[bits.OnesCount(mask)-1], mask)
	}
	failed := map[uint]bool{}
	for size := k - 1; size >= 1; size-- {
		for _, mask := range bySize[size-1] {
			// Prune: if any superset antecedent (within this itemset) with
			// one more item already failed... supersets were processed in the
			// previous (larger) round; if a superset failed, this one will
			// too. Check all one-item extensions.
			pruned := false
			for b := 0; b < k; b++ {
				sup := mask | 1<<uint(b)
				if sup != mask && bits.OnesCount(sup) == size+1 && failed[sup] {
					pruned = true
					break
				}
			}
			if pruned {
				failed[mask] = true
				continue
			}
			ant, cons := splitByMask(fs.Items, mask)
			antSup, ok := support[ant.Key()]
			if !ok || antSup == 0 {
				continue // cannot happen for frequent supersets, but be safe
			}
			conf := float64(fs.Support) / float64(antSup)
			if conf < minConf {
				failed[mask] = true
				continue
			}
			rule := Rule{
				Antecedent: ant,
				Consequent: cons,
				Support:    fs.Support,
				Confidence: conf,
			}
			if consSup, ok := support[cons.Key()]; ok && consSup > 0 {
				rule.Lift = conf / (float64(consSup) / float64(m))
			}
			rules = append(rules, rule)
		}
	}
	return rules
}

func splitByMask(items Itemset, mask uint) (in, out Itemset) {
	for i, x := range items {
		if mask&(1<<uint(i)) != 0 {
			in = append(in, x)
		} else {
			out = append(out, x)
		}
	}
	return in, out
}
