package anonrisk

// One benchmark per table and figure of the paper's evaluation, each driving
// the same harness as cmd/experiments (in Quick mode, so `go test -bench=.`
// stays minutes-scale), plus micro-benchmarks of the core operations whose
// costs the paper discusses (the O(|D| + n log n) O-estimate, propagation,
// the matching sampler, and the exponential direct method).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/matching"
	"repro/internal/parallel"
	"repro/internal/recipe"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(context.Background(), experiments.Config{Seed: int64(i + 1), Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// BenchmarkTableDelta regenerates the §5.2 chain error table.
func BenchmarkTableDelta(b *testing.B) { benchExperiment(b, "delta") }

// BenchmarkFigure9 regenerates the benchmark statistics table.
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, "figure9") }

// BenchmarkFigure10 regenerates the O-estimate accuracy comparison.
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "figure10") }

// BenchmarkFigure11 regenerates the compliancy sweep.
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "figure11") }

// BenchmarkFigure12 regenerates the similarity-by-sampling curves.
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "figure12") }

// BenchmarkRecipe regenerates the §7.3 Assess-Risk walk-through.
func BenchmarkRecipe(b *testing.B) { benchExperiment(b, "recipe") }

// retailSetup prepares the paper's largest benchmark once per benchmark run.
func retailSetup(b *testing.B) (*dataset.FrequencyTable, *belief.Function) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	ft, err := datagen.RETAIL.Counts(rng)
	if err != nil {
		b.Fatal(err)
	}
	gr := dataset.GroupItems(ft)
	return ft, belief.UniformWidth(ft.Frequencies(), gr.MedianGap())
}

// BenchmarkOEstimateRETAIL times the Figure 5 procedure on the 16,470-item
// RETAIL clone — the paper reports "only a few seconds" on 2005 hardware.
func BenchmarkOEstimateRETAIL(b *testing.B) {
	ft, bf := retailSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.OEstimateCtx(context.Background(), bf, ft, core.OEOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPropagationRETAIL times degree-1 propagation (Figure 7) at scale.
func BenchmarkPropagationRETAIL(b *testing.B) {
	ft, bf := retailSetup(b)
	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.PropagateCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplerSweepRETAIL times one targeted sweep (n proposals) of the
// matching sampler on the RETAIL clone.
func BenchmarkSamplerSweepRETAIL(b *testing.B) {
	ft, bf := retailSetup(b)
	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		b.Fatal(err)
	}
	s, err := matching.NewSampler(context.Background(), g, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TargetedSweep()
	}
}

// BenchmarkAssessRiskCHESS times the full recipe on the CHESS clone.
func BenchmarkAssessRiskCHESS(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ft, err := datagen.CHESS.Counts(rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recipe.AssessRiskCtx(context.Background(), ft, recipe.Options{Tolerance: 0.1, Propagate: true, Rng: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectMethod times the permanent-based exact expectation on a
// 16-vertex graph — the #P-complete wall that motivates the O-estimate.
func BenchmarkDirectMethod(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	e := bipartite.RandomExplicit(16, 0.4, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactExpectedCracksCtx(context.Background(), e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation regenerates the design-choice ablation tables.
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkItemsets regenerates the §8.2 itemset-level extension table.
func BenchmarkItemsets(b *testing.B) { benchExperiment(b, "itemsets") }

// BenchmarkKanon regenerates the k-anonymization baseline comparison.
func BenchmarkKanon(b *testing.B) { benchExperiment(b, "kanon") }

// BenchmarkSanitize regenerates the randomization trade-off comparison.
func BenchmarkSanitize(b *testing.B) { benchExperiment(b, "sanitize") }

// BenchmarkOEstimateBudgeted times the same RETAIL O-estimate under an
// active (but never-exhausted) budget. Compare against BenchmarkOEstimateRETAIL:
// the per-item Charge plus the once-per-4096-ops context poll must stay
// within a few percent of the unbudgeted loop.
func BenchmarkOEstimateBudgeted(b *testing.B) {
	ft, bf := retailSetup(b)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.OEstimateCtx(ctx, bf, ft, core.OEOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackRETAIL and BenchmarkAttackCtxRETAIL bracket the deadline
// plumbing cost at the public API: the same O-estimate work under a
// background context and under one carrying a deadline.
func BenchmarkAttackRETAIL(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	db, err := datagen.RETAIL.Database(rng)
	if err != nil {
		b.Fatal(err)
	}
	bf := BallparkKnowledge(db, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AttackTableCtx(context.Background(), bf, db.Table(), AttackOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttackCtxRETAIL(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	db, err := datagen.RETAIL.Database(rng)
	if err != nil {
		b.Fatal(err)
	}
	bf := BallparkKnowledge(db, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AttackTableCtx(ctx, bf, db.Table(), AttackOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplerParallel times the R-run MCMC crack estimate on the CONNECT
// clone at 1/2/4/8 workers. The estimate is bit-identical at every width (each
// run owns a split-seeded generator and run means reduce in run order); the
// speedup tops out at min(workers, Runs, GOMAXPROCS) — on a single-core host
// all widths time alike.
func BenchmarkSamplerParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ft, err := datagen.CONNECT.Counts(rng)
	if err != nil {
		b.Fatal(err)
	}
	gr := dataset.GroupItems(ft)
	bf := belief.UniformWidth(ft.Frequencies(), gr.MedianGap())
	g, err := bipartite.Build(bf, gr)
	if err != nil {
		b.Fatal(err)
	}
	cfg := matching.Config{SeedSweeps: 20, SampleGap: 2, SamplesPerSeed: 100, Samples: 200, Runs: 8}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			ctx := parallel.WithWorkers(context.Background(), w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := matching.EstimateCracksCtx(ctx, g, cfg, rand.New(rand.NewSource(7))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCurveParallel times the Figure 11 compliancy curve (11 α-points ×
// runs random subsets, each an independent O-estimate) on the CONNECT clone at
// 1/2/4/8 workers.
func BenchmarkCurveParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ft, err := datagen.CONNECT.Counts(rng)
	if err != nil {
		b.Fatal(err)
	}
	gr := dataset.GroupItems(ft)
	bf := belief.UniformWidth(ft.Frequencies(), gr.MedianGap())
	alphas := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			ctx := parallel.WithWorkers(context.Background(), w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				search, err := recipe.NewAlphaSearch(ft, bf, 4, true, rand.New(rand.NewSource(7)))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := search.CurveCtx(ctx, alphas); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOEstimateScaling reports how the Figure 5 procedure scales with
// the domain size (the paper: O(|D| + n log n)).
func BenchmarkOEstimateScaling(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000, 64000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			m := 4 * n
			counts := make([]int, n)
			for i := range counts {
				counts[i] = rng.Intn(m + 1)
			}
			ft, err := dataset.NewTable(m, counts)
			if err != nil {
				b.Fatal(err)
			}
			gr := dataset.GroupItems(ft)
			bf := belief.UniformWidth(ft.Frequencies(), gr.MedianGap())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.OEstimateCtx(context.Background(), bf, ft, core.OEOptions{Propagate: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
