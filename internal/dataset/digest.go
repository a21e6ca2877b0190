package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Digest returns a stable content address of the table: a hex SHA-256 over
// the transaction count and the support counts in item order. Two tables
// digest equal exactly when every risk analysis in this repo would score them
// identically — the paper's estimates depend on the data only through the
// support-count view, so the digest is the natural cache key for repeated
// assessments of one release (see internal/riskcache).
//
// The digest is memoized; ApplyDiff invalidates the memo, so the value
// returned here always reflects the current counts. The delta tests pin
// Digest(apply(diff)) == Digest(rebuild) to keep the memo honest.
func (ft *FrequencyTable) Digest() string {
	if d := ft.digest.Load(); d != nil {
		return *d
	}
	// The stream goes through the hash in 4 KiB blocks: one 8-byte Write
	// per count made a RETAIL-sized table's digest take about twice as long.
	h := sha256.New()
	var buf [4096]byte
	b := binary.LittleEndian.AppendUint64(buf[:0], uint64(ft.NTransactions))
	b = binary.LittleEndian.AppendUint64(b, uint64(ft.NItems))
	for _, c := range ft.Counts {
		if len(b) == len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	h.Write(b)
	d := hex.EncodeToString(h.Sum(nil))
	ft.digest.Store(&d)
	return d
}
