package recipe

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/datagen"
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
