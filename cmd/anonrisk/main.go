// Command anonrisk runs the paper's Assess-Risk recipe (Figure 8) on a
// transaction database in FIMI format and reports whether releasing the
// anonymized data stays within the owner's crack tolerance.
//
// Usage:
//
//	anonrisk [-tau 0.1] [-comfort 0.5] [-runs 5] [-seed 1] [-propagate]
//	         [-timeout 30s] [-max-work n] [-workers n] [-attack beliefs.txt] [file]
//
// With no file argument the database is read from standard input. The exit
// status is 0 for a "disclose" verdict, 3 for "withhold", 4 when the -timeout
// or -max-work budget prevents even a degraded answer, and 1 for other
// errors. With -attack, a concrete hacker belief function (see
// internal/belief.Parse for the format) is evaluated against the data instead
// of running the recipe.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/recipe"
)

func main() {
	tau := flag.Float64("tau", 0.1, "degree of tolerance τ: tolerable fraction of cracked items")
	comfort := flag.Float64("comfort", 0.5, "α_max comfort level for the final verdict")
	runs := flag.Int("runs", 5, "random compliant subsets averaged per α level")
	seed := flag.Int64("seed", 1, "random seed")
	propagate := flag.Bool("propagate", true, "apply degree-1 propagation in the O-estimates")
	attack := flag.String("attack", "", "evaluate a hacker belief function from this file instead of running the recipe")
	budgetCtx := cliutil.BudgetFlags()
	withWorkers := cliutil.WorkersFlag()
	flag.Parse()
	ctx, cancel := budgetCtx()
	defer cancel()
	ctx = withWorkers(ctx)

	var in io.Reader = os.Stdin
	name := "stdin"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}
	// The recipe and attack evaluation depend on the data only through its
	// support counts, so the database streams through without materializing.
	ft, err := dataset.ReadFIMICounts(in, 0)
	if err != nil {
		fatal(err)
	}
	if *attack != "" {
		runAttack(ctx, ft, *attack, name)
		return
	}
	res, err := recipe.AssessRiskCtx(ctx, ft, recipe.Options{
		Tolerance:    *tau,
		Runs:         *runs,
		Propagate:    *propagate,
		AlphaComfort: *comfort,
		Rng:          rand.New(rand.NewSource(*seed)),
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("dataset          %s (%d items, %d transactions)\n", name, ft.NItems, ft.NTransactions)
	fmt.Printf("tolerance τ      %.4f (budget %.2f cracked items)\n", *tau, *tau*float64(ft.NItems))
	fmt.Printf("frequency groups %d  => point-valued worst case: %d expected cracks (%.4f of domain)\n",
		res.Groups, res.Groups, res.FractionPointValued())
	if res.Stage >= recipe.StageCompliantInterval {
		fmt.Printf("δ_med            %.6g\n", res.DeltaMed)
		fmt.Printf("O-estimate       %.3f expected cracks at full compliancy (%.4f of domain)\n",
			res.OEFull, res.FractionOEFull())
	}
	if res.Stage == recipe.StageAlphaSearch {
		fmt.Printf("α_max            %.3f (largest compliancy within tolerance; comfort level %.2f)\n",
			res.AlphaMax, *comfort)
	}
	if res.Degraded {
		fmt.Printf("note             budget ran out (%s); α_max is a proven lower bound\n", res.DegradedReason)
	}
	fmt.Printf("compute          %d workers, wall %v, cpu %v\n",
		res.Workers, res.Wall.Round(time.Millisecond), res.CPU.Round(time.Millisecond))
	fmt.Printf("decided by       %s\n", res.Stage)
	if res.Disclose {
		fmt.Println("verdict          DISCLOSE")
		return
	}
	fmt.Println("verdict          WITHHOLD")
	os.Exit(3)
}

// runAttack evaluates a concrete belief function against the data.
func runAttack(ctx context.Context, ft *dataset.FrequencyTable, path, name string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	bf, err := belief.Parse(f, ft.NItems)
	if err != nil {
		fatal(err)
	}
	alpha := bf.Alpha(ft.Frequencies())
	fmt.Printf("dataset          %s (%d items, %d transactions)\n", name, ft.NItems, ft.NTransactions)
	fmt.Printf("belief function  %s (compliancy α = %.3f)\n", path, alpha)

	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		fatal(err)
	}
	oe, err := core.OEstimateGraphCtx(ctx, g, core.OEOptions{Propagate: true})
	if errors.Is(err, bipartite.ErrInfeasible) {
		fmt.Println("note             no globally consistent mapping; §5.3 per-item estimate")
		oe, err = core.OEstimateGraphCtx(ctx, g, core.OEOptions{})
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("expected cracks  %.3f of %d items (%.2f%%)\n",
		oe.Value, ft.NItems, 100*oe.Value/float64(ft.NItems))
	if oe.Forced > 0 {
		fmt.Printf("forced           %d assignments certain in every consistent mapping\n", oe.Forced)
	}
}

func fatal(err error) {
	cliutil.Fatal("anonrisk", err)
}
