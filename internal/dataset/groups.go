package dataset

import "sort"

// Group is a frequency group: the set of items sharing one exact support
// count. Grouping is by integer support count, so equality is exact — no
// floating-point comparisons are involved.
type Group struct {
	Count int     // the shared support count
	Items []int   // item ids in this group, ascending
	Freq  float64 // Count / NTransactions, for convenience
}

// Grouping is the partition of the universe into frequency groups, ordered by
// increasing frequency. It is the central structure of the paper: the hacker
// observes only these groups in the anonymized release, and every closed-form
// lemma is stated in terms of group sizes.
type Grouping struct {
	NTransactions int
	Groups        []Group // ascending by Count
	itemGroup     []int   // item id -> index into Groups
}

// GroupItems groups the items of the table by exact support count. A
// counting pass sizes every group first, so one backing slice holds all
// groups' items, each group a full window of it (cap == len), filled in
// ascending item order.
func GroupItems(ft *FrequencyTable) *Grouping {
	// group maps a count to its group's size, and from the layout loop on
	// to its group's index.
	group := make(map[int]int)
	for _, c := range ft.Counts {
		group[c]++
	}
	counts := make([]int, 0, len(group))
	for c := range group {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	g := &Grouping{
		NTransactions: ft.NTransactions,
		Groups:        make([]Group, len(counts)),
		itemGroup:     make([]int, ft.NItems),
	}
	items := make([]int, ft.NItems)
	next := make([]int, len(counts)) // each group's next free slot in items
	m := float64(ft.NTransactions)
	off := 0
	for gi, c := range counts {
		n := group[c]
		g.Groups[gi] = Group{Count: c, Items: items[off : off+n : off+n], Freq: float64(c) / m}
		next[gi] = off
		group[c] = gi
		off += n
	}
	for x, c := range ft.Counts {
		gi := group[c]
		items[next[gi]] = x
		next[gi]++
		g.itemGroup[x] = gi
	}
	return g
}

// NumGroups returns g, the number of distinct observed frequencies.
func (gr *Grouping) NumGroups() int { return len(gr.Groups) }

// NumItems returns the universe size.
func (gr *Grouping) NumItems() int { return len(gr.itemGroup) }

// GroupOf returns the index of the frequency group containing item x.
func (gr *Grouping) GroupOf(x int) int { return gr.itemGroup[x] }

// Sizes returns the group sizes n_1..n_g in increasing frequency order.
func (gr *Grouping) Sizes() []int {
	sizes := make([]int, len(gr.Groups))
	for i, g := range gr.Groups {
		sizes[i] = len(g.Items)
	}
	return sizes
}

// Freqs returns the distinct group frequencies in increasing order.
func (gr *Grouping) Freqs() []float64 {
	fs := make([]float64, len(gr.Groups))
	for i, g := range gr.Groups {
		fs[i] = g.Freq
	}
	return fs
}

// SingletonGroups returns the number of groups containing exactly one item.
// The paper reports this per benchmark (Figure 9): a high singleton count
// means the compliant point-valued belief function cracks almost everything.
func (gr *Grouping) SingletonGroups() int {
	s := 0
	for _, g := range gr.Groups {
		if len(g.Items) == 1 {
			s++
		}
	}
	return s
}

// Gaps returns the g-1 differences between successive group frequencies,
// in increasing frequency order. It returns nil when g < 2.
func (gr *Grouping) Gaps() []float64 {
	if len(gr.Groups) < 2 {
		return nil
	}
	gaps := make([]float64, len(gr.Groups)-1)
	for i := 1; i < len(gr.Groups); i++ {
		gaps[i-1] = gr.Groups[i].Freq - gr.Groups[i-1].Freq
	}
	return gaps
}

// MedianGap returns δ_med, the median gap between successive frequency
// groups — the interval half-width the recipe of Figure 8 uses. It returns
// 0 when there are fewer than two groups.
func (gr *Grouping) MedianGap() float64 {
	return Median(gr.Gaps())
}

// MeanGap returns the average gap between successive frequency groups.
// The paper warns (Sections 6.1 and 7.4) that using the mean instead of the
// median under-estimates the risk; it is provided so that the comparison can
// be reproduced.
func (gr *Grouping) MeanGap() float64 {
	return Mean(gr.Gaps())
}
