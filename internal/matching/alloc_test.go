package matching

// Allocation-regression tests for the flat kernel (DESIGN.md §11): sampling
// must be allocation-free after setup, and the crack count taken per sample
// must equal a fresh O(n) recount of the matching. A regression in either
// silently costs the ≥3× kernel win (GC pressure) or corrupts every
// simulated estimate (a wrong count), so both are pinned here.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/budget"
	"repro/internal/parallel"
)

func allocSampler(t testing.TB) *Sampler {
	t.Helper()
	ft := mustTable(t, 60, []int{4, 4, 11, 11, 11, 19, 19, 28, 28, 39, 39, 39, 50, 50})
	bf := belief.UniformWidth(ft.Frequencies(), 0.09)
	g := buildGraph(t, bf, ft)
	s, err := NewSampler(context.Background(), g, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSweepZeroAllocs(t *testing.T) {
	s := allocSampler(t)
	if n := testing.AllocsPerRun(200, func() { s.Sweep() }); n != 0 {
		t.Errorf("Sweep allocates %v per call, want 0", n)
	}
}

func TestTargetedSweepZeroAllocs(t *testing.T) {
	s := allocSampler(t)
	if n := testing.AllocsPerRun(200, func() { s.TargetedSweep() }); n != 0 {
		t.Errorf("TargetedSweep allocates %v per call, want 0", n)
	}
}

func TestCracksZeroAllocs(t *testing.T) {
	s := allocSampler(t)
	sink := 0
	if n := testing.AllocsPerRun(200, func() { sink += s.Cracks() }); n != 0 {
		t.Errorf("Cracks allocates %v per call, want 0", n)
	}
	_ = sink
}

// TestTargetedSweepBatchZeroAllocs is the multi-batch row of the contract:
// a sweep over full batches plus a partial one reuses the fixed word buffer.
func TestTargetedSweepBatchZeroAllocs(t *testing.T) {
	s, err := NewSampler(context.Background(), batchChainGraph(t), rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { s.TargetedSweep() }); n != 0 {
		t.Errorf("TargetedSweep over several batches allocates %v per call, want 0", n)
	}
}

func TestReseedZeroAllocs(t *testing.T) {
	s := allocSampler(t)
	if n := testing.AllocsPerRun(200, func() { s.Reseed(2) }); n != 0 {
		t.Errorf("Reseed allocates %v per call, want 0", n)
	}
}

// TestSimulateRunSteadyStateAllocs drives entire runs through a warm
// runScratch: after the first run binds the scratch to the graph, a full
// simulateRun — reseeds, burn-in, sampling, budget charges included — must
// not allocate at all. This is the per-worker reuse contract that
// EstimateCracksCtx's pool relies on.
func TestSimulateRunSteadyStateAllocs(t *testing.T) {
	ft := mustTable(t, 60, []int{4, 4, 11, 11, 11, 19, 19, 28, 28, 39, 39, 39, 50, 50})
	bf := belief.UniformWidth(ft.Frequencies(), 0.09)
	g := buildGraph(t, bf, ft)
	cfg := Config{SeedSweeps: 5, SampleGap: 2, SamplesPerSeed: 10, Samples: 30, Runs: 1}.withDefaults()
	ctx := context.Background()
	sc := &runScratch{bud: budget.NewShared(ctx, budget.Config{}).Worker()}
	if _, err := simulateRun(ctx, g, cfg, parallel.SplitSeed(1, 0), sc); err != nil {
		t.Fatal(err) // warm-up run binds the scratch
	}
	run := uint64(1)
	n := testing.AllocsPerRun(50, func() {
		if _, err := simulateRun(ctx, g, cfg, parallel.SplitSeed(1, run), sc); err != nil {
			t.Fatal(err)
		}
		run++
	})
	if n != 0 {
		t.Errorf("steady-state simulateRun allocates %v per run, want 0", n)
	}
}

// TestSimulateRunBatchedSteadyStateAllocs is the multi-batch row of the
// same contract: on a graph of more than sweepBatch items every sweep runs
// full batches plus a partial one, and steady-state runs still stay
// allocation-free.
func TestSimulateRunBatchedSteadyStateAllocs(t *testing.T) {
	g := batchChainGraph(t)
	cfg := Config{SeedSweeps: 5, SampleGap: 2, SamplesPerSeed: 10, Samples: 30, Runs: 1}.withDefaults()
	ctx := context.Background()
	sc := &runScratch{bud: budget.NewShared(ctx, budget.Config{}).Worker()}
	if _, err := simulateRun(ctx, g, cfg, parallel.SplitSeed(1, 0), sc); err != nil {
		t.Fatal(err) // warm-up run binds the scratch
	}
	run := uint64(1)
	n := testing.AllocsPerRun(50, func() {
		if _, err := simulateRun(ctx, g, cfg, parallel.SplitSeed(1, run), sc); err != nil {
			t.Fatal(err)
		}
		run++
	})
	if n != 0 {
		t.Errorf("steady-state multi-batch simulateRun allocates %v per run, want 0", n)
	}
}

// TestIncrementalCracksMatchesRecount sweeps 10k times across both move
// kinds, graphs with and without identity seeds, and periodic reseeds,
// asserting after every sweep that Cracks — the forced cracks bind counted
// once plus an O(|open|) scan of the open items — equals a fresh O(n)
// recount of the current matching. (The name predates the per-sample
// count; the crack count is no longer maintained incrementally.)
func TestIncrementalCracksMatchesRecount(t *testing.T) {
	recount := func(m []int) int {
		c := 0
		for x, w := range m {
			if w == x {
				c++
			}
		}
		return c
	}
	rng := rand.New(rand.NewSource(31))
	sweeps := 0
	for trial := 0; sweeps < 10000; trial++ {
		n := 6 + rng.Intn(8)
		m := 30
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft := mustTable(t, m, counts)
		bf := belief.RandomCompliant(ft.Frequencies(), 0.25, rng)
		g := buildGraph(t, bf, ft)
		s, err := NewSampler(context.Background(), g, rng)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 500; k++ {
			switch k % 10 {
			case 9:
				s.Reseed(1)
			case 4:
				s.PaperMoves = true
				s.Step()
				s.PaperMoves = false
			default:
				s.Step()
			}
			sweeps++
			if got, want := s.Cracks(), recount(s.Matching()); got != want {
				t.Fatalf("trial %d sweep %d: Cracks() %d != recount %d", trial, k, got, want)
			}
		}
	}
}
