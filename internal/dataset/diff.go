package dataset

import (
	"errors"
	"fmt"
	"sort"
)

// CountsDiff is a sparse delta between two frequency tables over the same
// universe: the recurring-release setting of Section 6 re-assesses nearly
// identical data, where a day of new transactions moves a handful of support
// counts. Applying a diff to the pre-release table yields the post-release
// table exactly, so the delta assessment pipeline (bipartite.Rebin,
// recipe.DeltaSession) can patch its structures in place instead of
// rebuilding them, while remaining bit-for-bit equivalent to a full
// recompute.
type CountsDiff struct {
	// DTransactions is the change to NTransactions (post = pre + DTransactions).
	DTransactions int `json:"dtransactions,omitempty"`
	// Items lists the item ids whose support count changed, strictly
	// ascending. Deltas is parallel: post count = pre count + Deltas[i],
	// every entry nonzero.
	Items  []int `json:"items"`
	Deltas []int `json:"deltas"`
}

// ErrDiffMismatch reports a diff that does not apply to the table it was
// offered: an out-of-range item, a count driven negative or past the
// post-diff transaction total, or malformed item/delta vectors.
var ErrDiffMismatch = errors.New("dataset: diff does not apply to table")

// Len returns the number of changed support counts.
func (d *CountsDiff) Len() int { return len(d.Items) }

// IsZero reports whether the diff changes nothing.
func (d *CountsDiff) IsZero() bool { return d.DTransactions == 0 && len(d.Items) == 0 }

// Validate checks that applying d to ft would produce a valid frequency
// table, without modifying ft. It is the complete precondition of ApplyDiff:
// items strictly ascending and in range, deltas nonzero and parallel to
// items, the post-diff transaction count positive, and every post-diff count
// — including the counts the diff does not touch, which matters when
// DTransactions shrinks the total — inside [0, NTransactions+DTransactions].
func (d *CountsDiff) Validate(ft *FrequencyTable) error {
	if len(d.Items) != len(d.Deltas) {
		return fmt.Errorf("%w: %d items but %d deltas", ErrDiffMismatch, len(d.Items), len(d.Deltas))
	}
	newM := ft.NTransactions + d.DTransactions
	if newM <= 0 {
		return fmt.Errorf("%w: post-diff transaction count %d, want > 0", ErrDiffMismatch, newM)
	}
	for i, x := range d.Items {
		if x < 0 || x >= ft.NItems {
			return fmt.Errorf("%w: item %d outside [0,%d)", ErrDiffMismatch, x, ft.NItems)
		}
		if i > 0 && x <= d.Items[i-1] {
			return fmt.Errorf("%w: items not strictly ascending at index %d", ErrDiffMismatch, i)
		}
		if d.Deltas[i] == 0 {
			return fmt.Errorf("%w: zero delta for item %d", ErrDiffMismatch, x)
		}
		c := ft.Counts[x] + d.Deltas[i]
		if c < 0 || c > newM {
			return fmt.Errorf("%w: item %d count %d+%d outside [0,%d]",
				ErrDiffMismatch, x, ft.Counts[x], d.Deltas[i], newM)
		}
	}
	if d.DTransactions < 0 {
		// A shrinking total can invalidate counts the diff never touches.
		di := 0
		for x, c := range ft.Counts {
			for di < len(d.Items) && d.Items[di] < x {
				di++
			}
			if di < len(d.Items) && d.Items[di] == x {
				continue // already validated post-diff above
			}
			if c > newM {
				return fmt.Errorf("%w: untouched item %d count %d exceeds post-diff total %d",
					ErrDiffMismatch, x, c, newM)
			}
		}
	}
	return nil
}

// Diff computes the sparse delta turning old into new. The tables must share
// the same universe size.
func Diff(old, cur *FrequencyTable) (*CountsDiff, error) {
	if old.NItems != cur.NItems {
		return nil, fmt.Errorf("dataset: diff universes %d vs %d", old.NItems, cur.NItems)
	}
	d := &CountsDiff{DTransactions: cur.NTransactions - old.NTransactions}
	for x := range old.Counts {
		if dc := cur.Counts[x] - old.Counts[x]; dc != 0 {
			d.Items = append(d.Items, x)
			d.Deltas = append(d.Deltas, dc)
		}
	}
	return d, nil
}

// ApplyDiff mutates ft into the post-diff table. The diff is validated in
// full before the first count moves, so a rejected diff leaves ft untouched.
// Any memoized digest is invalidated: Digest() after ApplyDiff is always the
// digest of the post-diff counts, and the delta-equivalence tests pin
// Digest(apply(diff)) == Digest(rebuild) so content addresses can never
// alias distinct tables.
func (ft *FrequencyTable) ApplyDiff(d *CountsDiff) error {
	if err := d.Validate(ft); err != nil {
		return err
	}
	ft.NTransactions += d.DTransactions
	for i, x := range d.Items {
		ft.Counts[x] += d.Deltas[i]
	}
	ft.digest.Store(nil)
	return nil
}

// RebinDelta reports how a Grouping changed under a CountsDiff — the work
// order for bipartite.Rebin.
type RebinDelta struct {
	// FreqsChanged marks that the distinct-frequency vector changed: the
	// transaction total moved (every group frequency shifts) or the set of
	// distinct counts changed (groups appeared or vanished). When false, the
	// graph's Freqs array — and every belief range computed against it — is
	// still valid.
	FreqsChanged bool
	// Moved lists the items whose frequency-group membership changed,
	// ascending. A nonzero count delta always moves its item (grouping is by
	// exact count), so this equals the diff's item list.
	Moved []int
	// FirstGroup is the index, in the NEW grouping, of the first group whose
	// (count, membership) pair differs from the old grouping; NumGroups when
	// only frequencies moved. Groups below it are identical in both, so the
	// graph's flat candidate array is untouched below its prefix offset.
	FirstGroup int
}

// ApplyDiffGrouping returns the grouping of the post-diff table, reusing the
// member slices of every group the diff left alone, plus the RebinDelta
// describing what changed. gr must be the grouping of the table BEFORE the
// diff was applied, and post the same table AFTER ApplyDiff(d) — the
// pre-diff counts are reconstructed as post.Counts[x] - d.Deltas[i].
//
// The result is structurally identical to GroupItems(post): same groups,
// same order, same membership — the delta-equivalence property the
// incremental assessment pipeline rests on.
func ApplyDiffGrouping(gr *Grouping, post *FrequencyTable, d *CountsDiff) (*Grouping, *RebinDelta, error) {
	if gr.NumItems() != post.NItems {
		return nil, nil, fmt.Errorf("dataset: grouping universe %d vs table %d", gr.NumItems(), post.NItems)
	}
	// Per-count removal and addition sets for the touched counts only.
	removed := make(map[int][]int) // pre count  -> items leaving it
	added := make(map[int][]int)   // post count -> items entering it
	for i, x := range d.Items {
		pre := post.Counts[x] - d.Deltas[i]
		post_ := post.Counts[x]
		removed[pre] = append(removed[pre], x)
		added[post_] = append(added[post_], x)
	}
	// Counts that gain members but have no existing group, ascending.
	var newCounts []int
	have := make(map[int]bool, len(gr.Groups))
	for _, g := range gr.Groups {
		have[g.Count] = true
	}
	for c := range added {
		if !have[c] {
			newCounts = append(newCounts, c)
		}
	}
	sort.Ints(newCounts)

	out := &Grouping{
		NTransactions: post.NTransactions,
		Groups:        make([]Group, 0, len(gr.Groups)+len(newCounts)),
		itemGroup:     append([]int(nil), gr.itemGroup...),
	}
	rd := &RebinDelta{
		FreqsChanged: d.DTransactions != 0,
		Moved:        append([]int(nil), d.Items...),
		FirstGroup:   -1,
	}
	m := float64(post.NTransactions)
	ni := 0 // cursor into newCounts
	emit := func(count int, items []int, identical bool) {
		if !identical && rd.FirstGroup < 0 {
			rd.FirstGroup = len(out.Groups)
		}
		out.Groups = append(out.Groups, Group{Count: count, Items: items, Freq: float64(count) / m})
	}
	for _, g := range gr.Groups {
		for ni < len(newCounts) && newCounts[ni] < g.Count {
			c := newCounts[ni]
			items := append([]int(nil), added[c]...)
			sort.Ints(items)
			rd.FreqsChanged = true
			emit(c, items, false)
			ni++
		}
		rm, ad := removed[g.Count], added[g.Count]
		if len(rm) == 0 && len(ad) == 0 {
			emit(g.Count, g.Items, true) // untouched: share the member slice
			continue
		}
		items := mergeMembers(g.Items, rm, ad)
		if len(items) == 0 {
			rd.FreqsChanged = true // group vanished: the frequency vector shrinks
			if rd.FirstGroup < 0 {
				rd.FirstGroup = len(out.Groups)
			}
			continue
		}
		emit(g.Count, items, false)
	}
	for ; ni < len(newCounts); ni++ {
		c := newCounts[ni]
		items := append([]int(nil), added[c]...)
		sort.Ints(items)
		rd.FreqsChanged = true
		emit(c, items, false)
	}
	if rd.FirstGroup < 0 {
		rd.FirstGroup = len(out.Groups)
	}
	// Groups at or beyond the first change may sit at shifted indices even
	// when their membership is unchanged; re-point their members.
	for gi := rd.FirstGroup; gi < len(out.Groups); gi++ {
		for _, x := range out.Groups[gi].Items {
			out.itemGroup[x] = gi
		}
	}
	return out, rd, nil
}

// mergeMembers removes rm from the sorted member list and merges in ad,
// returning a fresh sorted slice (the input is shared with the old grouping
// and never mutated).
func mergeMembers(items, rm, ad []int) []int {
	drop := make(map[int]bool, len(rm))
	for _, x := range rm {
		drop[x] = true
	}
	out := make([]int, 0, len(items)-len(rm)+len(ad))
	for _, x := range items {
		if !drop[x] {
			out = append(out, x)
		}
	}
	out = append(out, ad...)
	sort.Ints(out)
	return out
}
