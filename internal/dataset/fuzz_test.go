package dataset

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadFIMI asserts the reader's contract on arbitrary bytes: it either
// returns a database that survives a write/read round trip, or a descriptive
// error — never a panic, and never an item id beyond the configured limit.
func FuzzReadFIMI(f *testing.F) {
	f.Add("1 2 3\n4 5\n")
	f.Add("0\n")
	f.Add("")
	f.Add("  7  7   7\n\n\n2\n")
	f.Add("-1\n")
	f.Add("999999999999\n")
	f.Add("1 two 3\n")
	f.Add("\t 5 \r\n 6\r\n")
	f.Add("18446744073709551616\n") // overflows int64
	f.Fuzz(func(t *testing.T, in string) {
		lim := Limits{MaxItemID: 1 << 12, MaxLineBytes: 1 << 12}
		db, err := ReadFIMILimited(strings.NewReader(in), 0, lim)
		if err != nil {
			return
		}
		if db.Items() > 1<<12+1 {
			t.Fatalf("universe %d escaped the item-id limit", db.Items())
		}
		var buf bytes.Buffer
		if err := WriteFIMI(&buf, db); err != nil {
			t.Fatalf("write-back of accepted input: %v", err)
		}
		back, err := ReadFIMILimited(&buf, db.Items(), lim)
		if err != nil {
			t.Fatalf("round trip of accepted input: %v", err)
		}
		if back.Transactions() != db.Transactions() {
			t.Fatalf("round trip: %d transactions, want %d", back.Transactions(), db.Transactions())
		}

		// The streaming counts reader must agree with the materializing one.
		ft, err := ReadFIMICountsLimited(strings.NewReader(in), db.Items(), lim)
		if err != nil {
			t.Fatalf("counts reader rejects what ReadFIMI accepted: %v", err)
		}
		want := db.Table()
		if ft.NTransactions != want.NTransactions {
			t.Fatalf("counts: %d transactions, want %d", ft.NTransactions, want.NTransactions)
		}
		for x, c := range want.Counts {
			if ft.Counts[x] != c {
				t.Fatalf("counts[%d] = %d, want %d", x, ft.Counts[x], c)
			}
		}
	})
}

// FuzzCountsDiff asserts the diff contract on an arbitrary table (n ≤ 64)
// and an arbitrary diff, out-of-range, unsorted and zero entries included:
// Validate accepts exactly what ApplyDiff applies; a rejected diff leaves
// the table's digest as it was; and an accepted one leaves the digest of a
// table built afresh from the edited counts.
func FuzzCountsDiff(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5}, uint8(9), int8(0), []byte{0, 2}, []byte{1, 0xff})
	f.Add([]byte{3, 1, 4, 1, 5}, uint8(9), int8(2), []byte{1, 3, 4}, []byte{2, 2, 0xfe})
	f.Add([]byte{3, 1, 4, 1, 5}, uint8(9), int8(0), []byte{2, 1}, []byte{1, 1}) // unsorted
	f.Add([]byte{3, 1, 4, 1, 5}, uint8(9), int8(0), []byte{5}, []byte{1})       // past n
	f.Add([]byte{3, 1, 4, 1, 5}, uint8(9), int8(0), []byte{0xff}, []byte{1})    // negative item
	f.Add([]byte{3, 1, 4, 1, 5}, uint8(9), int8(0), []byte{0}, []byte{0})       // zero delta
	f.Add([]byte{3, 1, 4, 1, 5}, uint8(9), int8(0), []byte{0, 1}, []byte{1})    // lengths differ
	f.Add([]byte{9, 0, 9}, uint8(9), int8(-3), []byte{1}, []byte{1})            // shrink past untouched
	f.Add([]byte{2, 2, 2, 2}, uint8(3), int8(-4), []byte{}, []byte{})           // empty release
	f.Add([]byte{0, 7, 7, 1}, uint8(7), int8(1), []byte{0, 1, 2, 3}, []byte{8, 1, 0xf9, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte, mb uint8, dt int8, items, deltas []byte) {
		if len(raw) == 0 {
			return
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		m := 1 + int(mb)
		counts := make([]int, len(raw))
		for x, b := range raw {
			counts[x] = int(b) % (m + 1)
		}
		ft, err := NewTable(m, slices.Clone(counts))
		if err != nil {
			t.Fatalf("NewTable: %v", err)
		}
		d := &CountsDiff{DTransactions: int(dt)}
		for _, b := range items {
			d.Items = append(d.Items, int(int8(b)))
		}
		for _, b := range deltas {
			d.Deltas = append(d.Deltas, int(int8(b)))
		}
		before := ft.Digest()

		verr := d.Validate(ft)
		aerr := ft.ApplyDiff(d)
		if (verr == nil) != (aerr == nil) {
			t.Fatalf("Validate = %v but ApplyDiff = %v", verr, aerr)
		}
		if aerr != nil {
			rebuilt, err := NewTable(ft.NTransactions, slices.Clone(ft.Counts))
			if err != nil {
				t.Fatalf("rejected diff left an invalid table: %v", err)
			}
			if ft.Digest() != before || rebuilt.Digest() != before {
				t.Fatalf("rejected diff moved the digest")
			}
			return
		}

		want := append([]int(nil), counts...)
		for i, x := range d.Items {
			want[x] += d.Deltas[i]
		}
		fresh, err := NewTable(m+d.DTransactions, want)
		if err != nil {
			t.Fatalf("accepted diff edits the counts into an invalid table: %v", err)
		}
		if ft.Digest() != fresh.Digest() {
			t.Fatalf("digest after ApplyDiff %s, rebuilt %s", ft.Digest(), fresh.Digest())
		}
	})
}
