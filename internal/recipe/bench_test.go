package recipe

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// BenchmarkMaxAlphaWithin times one α binary search on the PUMSB profile at
// riskd's defaults (τ = 0.1, 5 runs, propagation, precision 1/64) on one
// worker. The search comes from NewAlphaSearch, so every call propagates
// once and then scans the terms for each probe. ci.sh -bench records it
// under "microbenchmarks" in BENCH_parallel.json.
func BenchmarkMaxAlphaWithin(b *testing.B) {
	ft, bf, _ := profileGraph(b, datagen.PUMSB)
	s, err := NewAlphaSearch(ft, bf, 5, true, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	ctx := parallel.WithWorkers(context.Background(), 1)
	crackBudget := 0.1 * float64(ft.NItems)
	if full, err := s.OEAtCtx(ctx, 1); err != nil || full <= crackBudget {
		b.Fatalf("OE(1) = %v (err %v): want above the crack budget %v so the search bisects", full, err, crackBudget)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MaxAlphaWithinCtx(ctx, crackBudget, 1.0/64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyDiffRETAIL times one DeltaSession.ApplyDiffCtx on the RETAIL
// profile (datagen seed 1) at riskd's defaults (τ = 0.1, 5 runs,
// propagation) on one worker: the update path of riskdbench's retail_delta
// workload, with its diffs drawn the same way. 64 warm-up diffs precede the
// timed ones.
func BenchmarkApplyDiffRETAIL(b *testing.B) {
	ft, err := datagen.RETAIL.Counts(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	const warm = 64
	diffs := transactionDiffs(ft, rand.New(rand.NewSource(2)), warm+b.N)
	ctx := parallel.WithWorkers(context.Background(), 1)
	sess, err := NewDeltaSessionCtx(ctx, ft, 1, Options{Tolerance: 0.1, Runs: 5, Propagate: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range diffs[:warm] {
		if _, err := sess.ApplyDiffCtx(ctx, d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, d := range diffs[warm:] {
		if _, err := sess.ApplyDiffCtx(ctx, d); err != nil {
			b.Fatal(err)
		}
	}
}

// transactionDiffs draws k diffs from ft's profile. Each appends one
// transaction of ft's mean transaction length, rounded up or down at random
// so the mean holds, whose distinct items are drawn in proportion to their
// counts in ft.
func transactionDiffs(ft *dataset.FrequencyTable, rng *rand.Rand, k int) []*dataset.CountsDiff {
	cum := make([]int, ft.NItems)
	total, support := 0, 0
	for x, c := range ft.Counts {
		total += c
		cum[x] = total
		if c > 0 {
			support++
		}
	}
	mean := float64(total) / float64(ft.NTransactions)
	diffs := make([]*dataset.CountsDiff, k)
	for i := range diffs {
		size := int(mean)
		if rng.Float64() < mean-float64(size) {
			size++
		}
		size = max(1, min(size, support))
		d := &dataset.CountsDiff{DTransactions: 1}
		for len(d.Items) < size {
			// The first item whose cumulative count exceeds a uniform draw.
			if x := sort.SearchInts(cum, 1+rng.Intn(total)); !slices.Contains(d.Items, x) {
				d.Items = append(d.Items, x)
			}
		}
		sort.Ints(d.Items)
		for range d.Items {
			d.Deltas = append(d.Deltas, 1)
		}
		diffs[i] = d
	}
	return diffs
}
