package matching

// Contract tests for the batched targeted kernel (TargetedSweep): it is
// deterministic per seed and worker count, keeps the matching invariants,
// and samples the uniform stationary distribution — pinned against exact
// expectations on graphs below sweepBatch items (one partial batch per
// sweep) and above it (full batches plus a partial one).

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/parallel"
)

// batchChain is a three-group chain (Section 4.2) of 135 items, more than
// sweepBatch and not a multiple of it, whose exact expected crack count is
// Lemma 6's closed form.
var batchChain = core.ChainSpec{
	GroupSizes: []int{40, 50, 45},
	Exclusive:  []int{25, 20, 25},
	Shared:     []int{30, 35},
}

func batchChainGraph(t *testing.T) *bipartite.Graph {
	t.Helper()
	ft, bf, err := batchChain.Realize(100, []int{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if n := ft.NItems; n <= sweepBatch || n%sweepBatch == 0 {
		t.Fatalf("chain has %d items; the test needs full batches of %d plus a partial one", n, sweepBatch)
	}
	return buildGraph(t, bf, ft)
}

// mixedGraph puts forced items beside one open component: five isolated
// counts, each alone in its belief range, around a seven-item cluster whose
// ranges overlap. Propagation forces exactly the five isolated items.
func mixedGraph(t *testing.T) *bipartite.Graph {
	t.Helper()
	ft := mustTable(t, 100, []int{10, 30, 50, 60, 61, 61, 62, 63, 63, 64, 70, 90})
	g := buildGraph(t, belief.UniformWidth(ft.Frequencies(), 0.025), ft)
	p, err := g.PropagateCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Forced) != 5 {
		t.Fatalf("propagation forced %d items, want the 5 isolated ones", len(p.Forced))
	}
	return g
}

// TestBatchEstimateDeterministic pins estimates over several batches per
// sweep as pure functions of (seed, cfg): bit-identical across repeated
// calls and worker counts.
func TestBatchEstimateDeterministic(t *testing.T) {
	g := batchChainGraph(t)
	cfg := Config{SeedSweeps: 10, SampleGap: 2, SamplesPerSeed: 50, Samples: 200, Runs: 6}
	at := func(workers int) *Estimate {
		ctx := parallel.WithWorkers(context.Background(), workers)
		est, err := EstimateCracksCtx(ctx, g, cfg, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	ref := at(1)
	for _, workers := range []int{1, 4} {
		got := at(workers)
		if !reflect.DeepEqual(got.RunMeans, ref.RunMeans) {
			t.Errorf("workers=%d: run means %v differ from serial %v", workers, got.RunMeans, ref.RunMeans)
		}
	}
}

// TestBatchSweepMatchesExact validates the kernel's stationary distribution
// against permanent-based expectations on random graphs below sweepBatch
// items and on a graph mixing forced and open items, and against Lemma 6 on
// a chain above sweepBatch.
func TestBatchSweepMatchesExact(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	check := func(name string, g *bipartite.Graph, exact float64) {
		t.Helper()
		est, err := EstimateCracksCtx(ctx, g, Config{Samples: 3000, Runs: 3}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Mean-exact) > math.Max(0.15, 4*est.StdDev+0.05) {
			t.Errorf("%s (n=%d): simulated %v ± %v, exact %v", name, g.Items(), est.Mean, est.StdDev, exact)
		}
	}
	for trial := 0; trial < 4; trial++ {
		n := 3 + rng.Intn(5)
		m := 20
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft := mustTable(t, m, counts)
		bf := belief.RandomCompliant(ft.Frequencies(), 0.2, rng)
		g := buildGraph(t, bf, ft)
		exact, err := core.ExactExpectedCracksCtx(ctx, g.ToExplicit())
		if err != nil {
			t.Fatal(err)
		}
		check("random graph", g, exact)
	}
	mixed := mixedGraph(t)
	exact, err := core.ExactExpectedCracksCtx(ctx, mixed.ToExplicit())
	if err != nil {
		t.Fatal(err)
	}
	check("forced and open", mixed, exact)
	exact, err = batchChain.ExpectedCracks()
	if err != nil {
		t.Fatal(err)
	}
	check("chain", batchChainGraph(t), exact)
}

// TestBatchSweepInvariants checks that sweeps spanning several batches
// preserve the matching invariants and that Cracks matches a recount.
func TestBatchSweepInvariants(t *testing.T) {
	g := batchChainGraph(t)
	s, err := NewSampler(context.Background(), g, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	n := g.Items()
	for sweep := 0; sweep < 40; sweep++ {
		s.Step()
		match := s.Matching()
		seen := make([]bool, n)
		cracks := 0
		for x, w := range match {
			if seen[w] {
				t.Fatalf("sweep %d: anonymized item %d matched twice", sweep, w)
			}
			seen[w] = true
			gw := g.ItemGroup[w]
			if gw < g.ItemLo[x] || gw > g.ItemHi[x] {
				t.Fatalf("sweep %d: inconsistent edge (%d,%d)", sweep, w, x)
			}
			if w == x {
				cracks++
			}
		}
		if cracks != s.Cracks() {
			t.Fatalf("sweep %d: Cracks() %d, recount %d", sweep, s.Cracks(), cracks)
		}
	}
}
