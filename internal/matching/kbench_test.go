package matching

// Micro-benchmark of the targeted-sweep kernel, isolating the proposal loop
// from the estimate plumbing that BenchmarkSamplerParallel (repo root) times
// end to end, on a CONNECT-sized and a RETAIL-sized domain. The sweep over
// sweepBatch recorded in DESIGN.md §16.3 reruns this benchmark once per
// candidate value.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/datagen"
	"repro/internal/dataset"
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
