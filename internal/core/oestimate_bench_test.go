package core

// Microbenchmark of the word-parallel O-estimate scan against the historical
// item-at-a-time boolean loop it replaced (the inner loop of
// referenceOEstimate, verbatim). ci.sh -bench records both under
// "microbenchmarks" in BENCH_parallel.json; the bitset kernel's win is the
// speedup_vs_bools ratio there.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/dataset"
)

var benchScanSink float64

func BenchmarkOEstimateScan(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n, m := 16384, 200
	counts := make([]int, n)
	for i := range counts {
		counts[i] = rng.Intn(m + 1)
	}
	ft, err := dataset.NewTable(m, counts)
	if err != nil {
		b.Fatal(err)
	}
	bf := belief.RandomCompliant(ft.Frequencies(), 0.1, rng)
	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		b.Fatal(err)
	}
	mask := bitset.New(n)
	maskBools := make([]bool, n)
	for x := 0; x < n; x += 2 {
		mask.Add(x)
		maskBools[x] = true
	}

	b.Run("impl=bitset", func(b *testing.B) {
		comp := g.ComplianceSet().Words()
		inv := g.OutdegreeReciprocals()
		crack := bitset.New(n)
		bud := budget.New(context.Background(), budget.Config{CheckEvery: 4096})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := oeScanWords(bud, n, comp, mask.Words(), crack.Words(), inv)
			if err != nil {
				b.Fatal(err)
			}
			benchScanSink = v
		}
	})

	b.Run("impl=bools", func(b *testing.B) {
		outdeg := g.Outdegrees()
		crack := make([]bool, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := 0.0
			for x := 0; x < n; x++ {
				if !g.Compliant(x) || !maskBools[x] {
					continue
				}
				crack[x] = true
				v += 1 / float64(outdeg[x])
			}
			benchScanSink = v
		}
	})
}
