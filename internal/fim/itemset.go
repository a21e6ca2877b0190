// Package fim provides the frequent-itemset mining substrate the paper's
// scenarios rest on ("mining as a service", "mining for the common good"):
// FP-Growth, which mines exactly the itemsets of the Apriori algorithm of
// Agrawal, Imielinski and Swami (reference [6] of the paper, which also
// defines the notion of item frequency used throughout). Apriori itself
// lives in the package tests as the oracle FP-Growth is checked against.
//
// Anonymization commutes with mining: the frequent itemsets of an anonymized
// database are exactly the images of the original frequent itemsets under
// the anonymization bijection — this is what makes releasing anonymized data
// useful, and risky.
package fim

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
)

// Itemset is a sorted, duplicate-free set of item ids.
type Itemset []dataset.Item

// NewItemset builds a canonical itemset from the given items.
func NewItemset(items ...dataset.Item) Itemset {
	s := append(Itemset(nil), items...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// Equal reports whether two itemsets contain the same items.
func (s Itemset) Equal(o Itemset) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Contains reports whether the itemset contains item x.
func (s Itemset) Contains(x dataset.Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// SubsetOf reports whether s ⊆ t (both sorted).
func (s Itemset) SubsetOf(t Itemset) bool {
	i := 0
	for _, x := range s {
		for i < len(t) && t[i] < x {
			i++
		}
		if i == len(t) || t[i] != x {
			return false
		}
		i++
	}
	return true
}

// Key returns a canonical string key for use in maps.
func (s Itemset) Key() string {
	b := make([]byte, 0, len(s)*4)
	for i, x := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, int(x))
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [12]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// Map applies an item renaming (e.g. an anonymization bijection) to the
// itemset, returning the canonical image.
func (s Itemset) Map(perm []int) Itemset {
	out := make(Itemset, len(s))
	for i, x := range s {
		out[i] = dataset.Item(perm[x])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s Itemset) String() string { return "{" + s.Key() + "}" }

// FrequentItemset pairs an itemset with its support count.
type FrequentItemset struct {
	Items   Itemset
	Support int
}

// SortItemsets puts frequent itemsets into the canonical report order:
// by length, then lexicographically by items.
func SortItemsets(sets []FrequentItemset) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i].Items, sets[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// AbsoluteSupport converts a fractional minimum support into an absolute
// transaction count (ceiling, at least 1).
func AbsoluteSupport(db *dataset.Database, fraction float64) (int, error) {
	if fraction <= 0 || fraction > 1 {
		return 0, fmt.Errorf("fim: support fraction %v outside (0,1]", fraction)
	}
	s := int(float64(db.Transactions())*fraction + 0.999999)
	if s < 1 {
		s = 1
	}
	return s, nil
}
