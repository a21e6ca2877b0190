package matching

// Micro-benchmarks of the sampler. BenchmarkTargetedSweep isolates the
// proposal loop from the estimate plumbing that BenchmarkSamplerParallel
// (repo root) times end to end, on a CONNECT-sized and a RETAIL-sized
// domain; the sweep over sweepBatch recorded in DESIGN.md §16.3 reruns it
// once per candidate value. BenchmarkEstimateCONNECT times the whole
// estimate riskd runs for a connect_sampled request.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

func BenchmarkTargetedSweep(b *testing.B) {
	counts := make([]int, 130)
	rng := rand.New(rand.NewSource(2))
	for i := range counts {
		counts[i] = rng.Intn(200)
	}
	connect := mustTable(b, 200, counts)
	retail, err := datagen.RETAIL.Counts(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		ft    *dataset.FrequencyTable
		width float64
	}{
		{connect, 0.01},
		{retail, dataset.GroupItems(retail).MedianGap()},
	} {
		b.Run(fmt.Sprintf("items=%d", tc.ft.NItems), func(b *testing.B) {
			g := buildGraph(b, belief.UniformWidth(tc.ft.Frequencies(), tc.width), tc.ft)
			s, err := NewSampler(context.Background(), g, rand.New(rand.NewSource(17)))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.TargetedSweep()
			}
		})
	}
}

// BenchmarkEstimateCONNECT times the sampler a connect_sampled request runs:
// one EstimateCracksCtx at the default Config on the CONNECT profile
// (datagen seed 1) under its δ_med-wide belief, on one worker. ns/proposal
// divides by the proposals the estimate reports making.
func BenchmarkEstimateCONNECT(b *testing.B) {
	g := profileGraph(b, datagen.CONNECT, 1)
	ctx := parallel.WithWorkers(context.Background(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	var proposals int64
	for i := 0; i < b.N; i++ {
		est, err := EstimateCracksCtx(ctx, g, Config{}, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		proposals += est.Proposals
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(proposals), "ns/proposal")
}
