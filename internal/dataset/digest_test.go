package dataset_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// digestOracle is Digest as first written: one 8-byte Write per field of
// the stream (NTransactions, NItems, then every count, little-endian).
func digestOracle(ft *dataset.FrequencyTable) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(ft.NTransactions))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(ft.NItems))
	h.Write(buf[:])
	for _, c := range ft.Counts {
		binary.LittleEndian.PutUint64(buf[:], uint64(c))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCounts returns n counts in [0, m] from a fixed formula, so the
// pinned digests depend on no random generator.
func goldenCounts(n, m int) []int {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = (i*7919 + 13) % (m + 1)
	}
	return counts
}

func mustTable(t *testing.T, m int, counts []int) *dataset.FrequencyTable {
	t.Helper()
	ft, err := dataset.NewTable(m, counts)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// TestDigestGolden pins Digest's hex. The digest is riskd's cache key, the
// RSNP1 snapshot key and a registry manifest input, so a change to the byte
// stream it hashes must show up here and not as silent cache misses. The
// stream is 16 + 8n bytes: n = 509, 510 and 511 end just before, on and
// just after a 4 KiB boundary.
func TestDigestGolden(t *testing.T) {
	retail, err := datagen.RETAIL.Counts(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ft   *dataset.FrequencyTable
		want string
	}{
		{"one item", mustTable(t, 5, []int{3}), "1adc7b1ea0fb024d183f72fc4090d1c41a38aa79094ada8625929362b360dafd"},
		{"n=509", mustTable(t, 1000, goldenCounts(509, 1000)), "1adea2d2f2a843a58024956b4cd866c3cbaf0468313c0e03a5c53988fc839e50"},
		{"n=510", mustTable(t, 1000, goldenCounts(510, 1000)), "6a3dc493b77c2884be7ab7bb42451675dd66a57de2ac5705b70d4e29f17d8812"},
		{"n=511", mustTable(t, 1000, goldenCounts(511, 1000)), "20dca8ffb37f061e21b1fa79f4885035ffda40690e87c544616342eb98443f63"},
		{"RETAIL seed 1", retail, "33f73c11046188e57710859f77c81a656f7bcc3cc81c6d270737e2c3ac3780bc"},
	} {
		if got := tc.ft.Digest(); got != tc.want {
			t.Errorf("%s: Digest() = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestDigestMatchesOracle compares Digest with digestOracle on random
// tables whose streams end anywhere relative to a block boundary.
func TestDigestMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(2100)
		m := 1 + rng.Intn(1<<40)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft := mustTable(t, m, counts)
		if got, want := ft.Digest(), digestOracle(ft); got != want {
			t.Fatalf("n=%d m=%d: Digest() = %s, oracle %s", n, m, got, want)
		}
	}
}
