package matching

// The RNG-splitting contract of the parallel engine: for a fixed seed, the
// sampler's estimate is bit-identical at every worker count, because each of
// the R runs owns a generator split off the root seed and the run means are
// reduced in run order.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/belief"
	"repro/internal/parallel"
)

func estimateAt(t *testing.T, workers int) *Estimate {
	t.Helper()
	ft := mustTable(t, 40, []int{3, 3, 8, 8, 8, 14, 14, 21, 21, 30, 30, 30})
	bf := belief.UniformWidth(ft.Frequencies(), 0.08)
	g := buildGraph(t, bf, ft)
	ctx := parallel.WithWorkers(context.Background(), workers)
	est, err := EstimateCracksCtx(ctx, g, Config{SeedSweeps: 10, Samples: 430, Runs: 6}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestSamplerBitIdenticalAcrossWorkerCounts(t *testing.T) {
	ref := estimateAt(t, 1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := estimateAt(t, workers)
		if got.Mean != ref.Mean || got.StdDev != ref.StdDev {
			t.Errorf("workers=%d: estimate %v ± %v differs from serial %v ± %v",
				workers, got.Mean, got.StdDev, ref.Mean, ref.StdDev)
		}
		for r := range ref.RunMeans {
			if got.RunMeans[r] != ref.RunMeans[r] {
				t.Errorf("workers=%d: run %d mean %v differs from serial %v",
					workers, r, got.RunMeans[r], ref.RunMeans[r])
			}
		}
	}
}

func TestSamplerSameSeedSameEstimate(t *testing.T) {
	a, b := estimateAt(t, 4), estimateAt(t, 4)
	if a.Mean != b.Mean || a.StdDev != b.StdDev {
		t.Errorf("same-seed estimates differ: %v ± %v vs %v ± %v", a.Mean, a.StdDev, b.Mean, b.StdDev)
	}
}
