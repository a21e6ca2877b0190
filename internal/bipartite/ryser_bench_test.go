package bipartite

// Microbenchmark of the Gray-code Ryser permanent against the 2^n-table
// subset DP it replaced as the counting backend. The DP survives as Ryser's
// correctness oracle in ryser_test.go, so the before/after is always
// reproducible on the current build.

import (
	"math/rand"
	"strconv"
	"testing"
)

func permanentBench(b *testing.B, n int, count func(e *Explicit) error) {
	rng := rand.New(rand.NewSource(11))
	e := RandomExplicit(n, 0.4, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := count(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPermanent(b *testing.B) {
	for _, n := range []int{12, 16, 20} {
		b.Run("impl=ryser/n="+strconv.Itoa(n), func(b *testing.B) {
			permanentBench(b, n, func(e *Explicit) error {
				_, err := e.countPerfectMatchingsRyser(nil, nil)
				return err
			})
		})
		if n > 16 {
			continue // the DP's 2^n big.Int table is minutes-scale past n=16
		}
		b.Run("impl=dp/n="+strconv.Itoa(n), func(b *testing.B) {
			permanentBench(b, n, func(e *Explicit) error {
				e.countPerfectMatchings()
				return nil
			})
		})
	}
}
