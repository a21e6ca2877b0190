package bipartite

import (
	"fmt"

	"repro/internal/belief"
	"repro/internal/dataset"
)

// RebinUpdate carries everything Rebin needs to patch a graph after a counts
// diff: the post-diff grouping (from dataset.ApplyDiffGrouping), the
// RebinDelta describing which groups moved, and which items' belief intervals
// changed (the recipe rebuilds the belief function around the new frequencies
// and median gap, so intervals can move even when the grouping barely does).
type RebinUpdate struct {
	// Grouping is the grouping of the table AFTER the diff was applied.
	Grouping *dataset.Grouping
	// Delta is the change report produced alongside Grouping.
	Delta *dataset.RebinDelta
	// ChangedIntervals lists the items whose belief intervals differ from the
	// ones the graph was built with, ascending. Ignored when AllIntervals is
	// set or Delta.FreqsChanged forces a full interval pass anyway.
	ChangedIntervals []int
	// AllIntervals forces recomputation of every item's group range — set it
	// when the belief function changed globally (e.g. a new δ_med width).
	AllIntervals bool
}

// Rebin patches the graph in place to match Build(bf, up.Grouping), touching
// only the frequency groups at or beyond Delta.FirstGroup and only the belief
// ranges that could have moved.
//
// The equivalence invariant (pinned by TestRebinMatchesBuild): after Rebin,
// every exported field and the flat candidate layout are deep-equal to a
// fresh Build against the same belief function and grouping. Everything
// downstream — propagation, sampling, O-estimates, verdicts — therefore
// computes bit-for-bit the same values on the patched graph as on a rebuilt
// one.
//
//lint:allow ctxbudget patch cost is O(changed + n) index work, below any budget floor
func (g *Graph) Rebin(bf *belief.Function, up RebinUpdate) error {
	gr, rd := up.Grouping, up.Delta
	if gr == nil || rd == nil {
		return fmt.Errorf("bipartite: Rebin needs both Grouping and Delta")
	}
	n := g.Items()
	if gr.NumItems() != n {
		return fmt.Errorf("bipartite: rebin grouping domain %d != graph domain %d", gr.NumItems(), n)
	}
	if bf.Items() != n {
		return fmt.Errorf("bipartite: belief domain %d != graph domain %d", bf.Items(), n)
	}
	k := gr.NumGroups()
	fg := rd.FirstGroup
	if fg < 0 || fg > k {
		return fmt.Errorf("bipartite: FirstGroup %d outside [0,%d]", fg, k)
	}

	// Patch the group structures from the first changed group on. Groups
	// below fg are identical in count, membership, and index, so their
	// GroupSize/GroupItems/ItemGroup/prefix entries are already correct.
	g.GroupSize = resizeInts(g.GroupSize, k)
	if cap(g.GroupItems) < k {
		gi2 := make([][]int, k)
		copy(gi2, g.GroupItems)
		g.GroupItems = gi2
	} else {
		g.GroupItems = g.GroupItems[:k]
	}
	g.prefix = resizeInts(g.prefix, k+1)
	//lint:allow loopbudget partition sweep over disjoint groups is O(n) total; Rebin has no ctx and callers budget the enclosing recompute
	for gi := fg; gi < k; gi++ {
		grp := gr.Groups[gi]
		g.GroupSize[gi] = len(grp.Items)
		g.GroupItems[gi] = append([]int(nil), grp.Items...)
		for _, x := range grp.Items {
			g.ItemGroup[x] = gi
		}
		g.prefix[gi+1] = g.prefix[gi] + len(grp.Items)
	}

	// Refresh the frequency vector and the belief ranges. When the
	// frequency vector is unchanged, a group index means the same frequency
	// it did before, so only items whose belief interval moved need a new
	// range; otherwise every range is recomputed against the new vector.
	g.Freqs = gr.Freqs()
	if rd.FreqsChanged || up.AllIntervals {
		for x := 0; x < n; x++ {
			g.ItemLo[x], g.ItemHi[x] = groupRange(g.Freqs, bf.Interval(x))
		}
	} else {
		for _, x := range up.ChangedIntervals {
			if x < 0 || x >= n {
				return fmt.Errorf("bipartite: changed-interval item %d outside [0,%d)", x, n)
			}
			g.ItemLo[x], g.ItemHi[x] = groupRange(g.Freqs, bf.Interval(x))
		}
	}

	// Rebuild the flat candidate array from the first changed group's offset;
	// the prefix below it is the unchanged concatenation of unchanged groups.
	g.flat = g.flat[:g.prefix[fg]]
	for gi := fg; gi < k; gi++ {
		g.flat = append(g.flat, g.GroupItems[gi]...)
	}

	// Re-derive every [base, span) window from the patched prefix sums,
	// zeroing both for items with no consistent counterpart exactly as Build
	// leaves them.
	for x := 0; x < n; x++ {
		lo, hi := g.ItemLo[x], g.ItemHi[x]
		if lo > hi {
			g.candBase[x], g.candSpan[x] = 0, 0
		} else {
			g.candBase[x] = g.prefix[lo]
			g.candSpan[x] = g.prefix[hi+1] - g.prefix[lo]
		}
		if g.Compliant(x) {
			g.compliant.Add(x)
		} else {
			g.compliant.Remove(x)
		}
		if g.candSpan[x] > 0 {
			g.invSpan[x] = 1 / float64(g.candSpan[x])
		} else {
			g.invSpan[x] = 0
		}
	}
	return nil
}

// resizeInts returns s with length n, reusing its backing array when it can
// and preserving the existing prefix values.
func resizeInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]int, n)
	copy(out, s)
	return out
}
