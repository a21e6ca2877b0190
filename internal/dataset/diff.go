package dataset

import (
	"errors"
	"fmt"
)

// CountsDiff is a sparse delta between two frequency tables over the same
// universe: the recurring-release setting of Section 6 re-assesses nearly
// identical data, where a day of new transactions moves a handful of support
// counts. Applying a diff to the pre-release table yields the post-release
// table exactly, digest included, so a client can send a diff instead of
// the whole table and riskd runs the full recipe on the applied table:
// bit-for-bit the verdict a full recompute gives.
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
