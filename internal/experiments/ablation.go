package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/matching"
	"repro/internal/recipe"
)

// RunAblation probes the design choices DESIGN.md calls out:
//
//  1. degree-1 propagation (Figure 7) on/off in the O-estimate;
//  2. interval width δ_med vs δ_mean (the recipe's conservatism claim);
//  3. uniform vs contribution-biased α-compliant subsets (the only mechanism
//     in this reproduction that recovers the paper's super-linear Figure 11
//     curves);
//  4. the paper's blind-transposition sampler vs the targeted-swap sampler
//     (same stationary distribution, different mixing).
func RunAblation(ctx context.Context, cfg Config) (*Report, error) {
	rep := &Report{ID: "ablation", Title: "Ablations of the reproduction's design choices"}

	prop, err := ablationPropagationAndWidth(ctx, rowRNG(cfg.Seed, 0, 0))
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, *prop)

	bias, err := ablationBias(ctx, cfg, rowRNG(cfg.Seed, 1, 0))
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, *bias)

	moves, err := ablationSamplerMoves(ctx, cfg, rowRNG(cfg.Seed, 2, 0))
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, *moves)

	rep.Notes = append(rep.Notes,
		"propagation only moves the O-estimate when forced cascades exist; δ_mean widths always lower the estimate (Lemma 8), confirming the paper's warning that the average under-estimates risk",
		"biased wrong-guess placement produces the super-linear compliancy curves of the paper's Figure 11; uniform placement (the paper's stated §6.2 procedure) is provably linear in expectation",
		"both samplers agree on the estimate; the targeted sampler needs orders of magnitude fewer sweeps to get there on narrow-interval graphs")
	return rep, nil
}

func ablationPropagationAndWidth(ctx context.Context, rng *rand.Rand) (*Table, error) {
	tb := &Table{
		Title:  "O-estimate vs propagation and interval width (full compliancy)",
		Header: []string{"dataset", "OE δ_med", "OE δ_med+prop", "forced", "OE δ_mean", "OE δ_mean/OE δ_med"},
	}
	for _, name := range figure10Datasets {
		plan, _ := datagen.ByName(name)
		ft, err := plan.Counts(rng)
		if err != nil {
			return nil, err
		}
		gr := dataset.GroupItems(ft)
		freqs := ft.Frequencies()
		med := belief.UniformWidth(freqs, gr.MedianGap())
		mean := belief.UniformWidth(freqs, gr.MeanGap())

		plain, err := core.OEstimateCtx(ctx, med, ft, core.OEOptions{})
		if err != nil {
			return nil, err
		}
		prop, err := core.OEstimateCtx(ctx, med, ft, core.OEOptions{Propagate: true})
		if err != nil {
			return nil, err
		}
		wide, err := core.OEstimateCtx(ctx, mean, ft, core.OEOptions{})
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if plain.Value > 0 {
			ratio = wide.Value / plain.Value
		}
		tb.Rows = append(tb.Rows, []string{
			name, f3(plain.Value), f3(prop.Value), fmt.Sprint(prop.Forced), f3(wide.Value), f3(ratio),
		})
	}
	return tb, nil
}

func ablationBias(ctx context.Context, cfg Config, rng *rand.Rand) (*Table, error) {
	tb := &Table{
		Title:  "α_max at τ = 0.1: uniform vs contribution-biased wrong guesses",
		Header: []string{"dataset", "α_max uniform", "α_max biased", "paper", "OE(α=0.5) uniform", "OE(α=0.5) biased"},
	}
	runs := 5
	if cfg.Quick {
		runs = 2
	}
	for _, name := range figure10Datasets {
		plan, _ := datagen.ByName(name)
		ft, err := plan.Counts(rng)
		if err != nil {
			return nil, err
		}
		gr := dataset.GroupItems(ft)
		bf := belief.UniformWidth(ft.Frequencies(), gr.MedianGap())
		budget := figure11Tau * float64(ft.NItems)

		uni, err := recipe.NewAlphaSearch(ft, bf, runs, true, rng)
		if err != nil {
			return nil, err
		}
		bia, err := recipe.NewAlphaSearchBiased(ft, bf, runs, true, rng)
		if err != nil {
			return nil, err
		}
		uniMax, err := uni.MaxAlphaWithinCtx(ctx, budget, 1.0/128)
		if err != nil {
			return nil, err
		}
		biaMax, err := bia.MaxAlphaWithinCtx(ctx, budget, 1.0/128)
		if err != nil {
			return nil, err
		}
		uniMid, err := uni.OEAtCtx(ctx, 0.5)
		if err != nil {
			return nil, err
		}
		biaMid, err := bia.OEAtCtx(ctx, 0.5)
		if err != nil {
			return nil, err
		}
		n := float64(ft.NItems)
		tb.Rows = append(tb.Rows, []string{
			name, f3(uniMax), f3(biaMax), f2(paperAlphaMax[name]), f4(uniMid / n), f4(biaMid / n),
		})
	}
	return tb, nil
}

func ablationSamplerMoves(ctx context.Context, cfg Config, rng *rand.Rand) (*Table, error) {
	tb := &Table{
		Title:  "Sampler moves on CONNECT (full compliancy, width δ_med)",
		Header: []string{"moves", "estimate", "stddev", "wall time"},
	}
	plan, _ := datagen.ByName("CONNECT")
	ft, err := plan.Counts(rng)
	if err != nil {
		return nil, err
	}
	gr := dataset.GroupItems(ft)
	bf := belief.UniformWidth(ft.Frequencies(), gr.MedianGap())
	g, err := bipartite.Build(bf, gr)
	if err != nil {
		return nil, err
	}
	for _, paperMoves := range []bool{false, true} {
		mc := simConfig(cfg.Quick)
		mc.PaperMoves = paperMoves
		if paperMoves {
			// The paper's blind transpositions mix over ten times slower
			// than targeted swaps on CONNECT (integrated autocorrelation
			// time ~20 sweeps, settled ~40 sweeps from a seed), so they
			// get 22,000 sweeps per run (2,000 quick), every one after
			// the burn-in sampled. matching's TestScheduleCoversMixing
			// measures this schedule's margins.
			mc.SeedSweeps, mc.Samples = 500, 21500
			if cfg.Quick {
				mc.SeedSweeps, mc.Samples = 200, 1800
			}
		}
		start := time.Now() //lint:allow detrand feeds only the "wall time" column, which determinism tests strip
		est, err := matching.EstimateCracksCtx(ctx, g, mc, rng)
		if err != nil {
			return nil, err
		}
		label := "targeted swaps"
		if paperMoves {
			label = fmt.Sprintf("paper transpositions (%d sweeps per run)", mc.SeedSweeps+mc.Samples)
		}
		tb.Rows = append(tb.Rows, []string{
			label, f3(est.Mean), f3(est.StdDev), time.Since(start).Round(time.Millisecond).String(), //lint:allow detrand feeds only the "wall time" column, which determinism tests strip
		})
	}
	return tb, nil
}
