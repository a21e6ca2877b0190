package matching

// The sampler's schedule, measured against the chain it runs. On each graph
// the test estimates, from fixed seeds:
//
//   - τ, the integrated autocorrelation time of the crack count in sweeps,
//     1 + 2Σρ(t) over one long chain, summed up to Sokal's automatic window
//     (the first lag M with M ≥ 5τ(M));
//   - the settling sweeps: how many sweeps the mean crack count of many
//     chains, each started from a fresh seed matching, takes to reach the
//     long chain's mean and stay there.
//
// It then asserts the schedule's margins: the burn-in is at least twice the
// settling sweeps, and Samples/τ, a run's effective samples, is at least
// 1,000 — what a run of the schedule before per-sweep sampling drew (1,000
// samples 5 sweeps apart, nearly independent at τ < 2). The settling
// tolerance is settleBand standard errors; τ is asserted on its point
// estimate, whose relative standard error √(2(2M+1)/N) the log reports
// (4–11% on these chains, against margins of ~80% for the defaults and
// ~8% for the paper's moves).

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// minEffectiveSamples is the effective samples per run a schedule must
// keep.
const minEffectiveSamples = 1000

// settleBand is the tolerance of the settling measurement, in standard
// errors: a sweep's mean over the chains counts as settled when it lies
// within settleBand standard errors of the stationary mean, the standard
// error combining the chains' spread at that sweep with the long chain's
// own uncertainty. Four keeps the chance that one of 300 settled sweeps
// falls outside the band by noise alone near 2%.
const settleBand = 4

// mixing is one chain's measured mixing.
type mixing struct {
	tau    float64 // integrated autocorrelation time of the crack count, sweeps
	window int     // Sokal window the τ sum stopped at
	mean   float64 // stationary mean crack count, from the long chain
	settle int     // sweeps from a seed until the mean stays within the band
	curve  []float64
}

// integratedAutocorr returns τ = 1 + 2Σ_{t=1..M} ρ(t) of xs with Sokal's
// automatic window: M is the first lag with M ≥ 5τ(M). A constant series
// has τ = 1.
func integratedAutocorr(xs []float64) (tau float64, window int) {
	mean := dataset.Mean(xs)
	c0 := 0.0
	for _, x := range xs {
		c0 += (x - mean) * (x - mean)
	}
	tau = 1
	if c0 == 0 {
		return tau, 0
	}
	for m := 1; m < len(xs); m++ {
		cm := 0.0
		for i := 0; i+m < len(xs); i++ {
			cm += (xs[i] - mean) * (xs[i+m] - mean)
		}
		tau += 2 * cm / c0
		if float64(m) >= 5*tau {
			return tau, m
		}
	}
	return tau, len(xs) - 1
}

// measureMixing measures the chain of one move kind on g: τ over a chain
// of `sweeps` sweeps that starts after `horizon` burn-in sweeps, and the
// settling sweeps from the mean curve of `chains` chains over their first
// `horizon` sweeps.
func measureMixing(t *testing.T, g *bipartite.Graph, paperMoves bool, chains, horizon, sweeps int) mixing {
	t.Helper()
	ctx := context.Background()
	s := &Sampler{PaperMoves: paperMoves}
	if err := s.Reset(ctx, g, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < horizon; i++ {
		s.Step()
	}
	xs := make([]float64, sweeps)
	for i := range xs {
		s.Step()
		xs[i] = float64(s.Cracks())
	}
	var m mixing
	m.tau, m.window = integratedAutocorr(xs)
	m.mean = dataset.Mean(xs)
	sd := dataset.StdDev(xs)
	meanVar := sd * sd * math.Max(m.tau, 1) / float64(sweeps)

	sum := make([]float64, horizon+1)
	sumSq := make([]float64, horizon+1)
	for c := 0; c < chains; c++ {
		if err := s.Reset(ctx, g, int64(1000+c)); err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= horizon; k++ {
			if k > 0 {
				s.Step()
			}
			x := float64(s.Cracks())
			sum[k] += x
			sumSq[k] += x * x
		}
	}
	n := float64(chains)
	m.curve = make([]float64, horizon+1)
	for k := range m.curve {
		m.curve[k] = sum[k] / n
	}
	m.settle = horizon + 1
	for k := horizon; k >= 0; k-- {
		mk := m.curve[k]
		v := math.Max(sumSq[k]/n-mk*mk, 0) * n / math.Max(n-1, 1)
		if math.Abs(mk-m.mean) > settleBand*math.Sqrt(v/n+meanVar) {
			break
		}
		m.settle = k
	}
	return m
}

// TestScheduleCoversMixing measures the targeted-swap chain on the ladder
// graphs and the Figure 9 profiles (RETAIL only outside -short) and asserts
// the default schedule's margins against it; it measures the paper's blind
// transpositions on CONNECT against the schedule internal/experiments'
// ablation runs them on (500 burn-in sweeps and 21,500 samples).
func TestScheduleCoversMixing(t *testing.T) {
	type chain struct {
		name                   string
		g                      *bipartite.Graph
		paperMoves             bool
		chains, horizon, sweep int
		cfg                    Config
	}
	defaults := Config{}.withDefaults()
	ladder := func(name string, g *bipartite.Graph) chain {
		return chain{name, g, false, 256, 20, 20000, defaults}
	}
	ft, bf, err := core.Figure4aChain().Realize(10, []int{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	chains := []chain{
		ladder("Figure 4(a) chain", buildGraph(t, bf, ft)),
		ladder("three-group chain", batchChainGraph(t)),
		ladder("forced and open", mixedGraph(t)),
		ladder("greedy seed", greedySeedGraph(t)),
	}
	for _, plan := range []datagen.GroupPlan{datagen.CONNECT, datagen.CHESS, datagen.MUSHROOM, datagen.ACCIDENTS} {
		chains = append(chains, ladder(plan.Name, profileGraph(t, plan, 1)))
	}
	chains = append(chains, chain{"PUMSB", profileGraph(t, datagen.PUMSB, 1), false, 256, 20, 8000, defaults})
	if !testing.Short() {
		chains = append(chains, chain{"RETAIL", profileGraph(t, datagen.RETAIL, 1), false, 16, 20, 3000, defaults})
	}
	chains = append(chains, chain{"CONNECT, paper moves", profileGraph(t, datagen.CONNECT, 1), true, 256, 300, 100000,
		Config{SeedSweeps: 500, Samples: 21500}})
	for _, c := range chains {
		m := measureMixing(t, c.g, c.paperMoves, c.chains, c.horizon, c.sweep)
		effective := float64(c.cfg.Samples) / m.tau
		t.Logf("%s: τ %.2f sweeps (window %d, relative error ~%.0f%%), stationary mean %.2f, settled after %d sweeps; curve %.1f",
			c.name, m.tau, m.window, 100*math.Sqrt(2*float64(2*m.window+1)/float64(c.sweep)), m.mean, m.settle, m.curve[:min(len(m.curve), 6)])
		if m.settle > c.horizon {
			t.Errorf("%s: the mean crack count had not settled %d sweeps from a seed: %.2f, stationary %.2f",
				c.name, c.horizon, m.curve[c.horizon], m.mean)
		}
		if c.cfg.SeedSweeps < 2*m.settle {
			t.Errorf("%s: burn-in of %d sweeps is less than twice the %d settling sweeps", c.name, c.cfg.SeedSweeps, m.settle)
		}
		if effective < minEffectiveSamples {
			t.Errorf("%s: %d samples at τ = %.2f are %.0f effective samples per run, want at least %d",
				c.name, c.cfg.Samples, m.tau, effective, minEffectiveSamples)
		}
	}
}

// greedySeedGraph is the first feasible α-compliant graph of a fixed
// sequence that lacks the identity matching, so every run starts from the
// same greedy perfect matching.
func greedySeedGraph(t *testing.T) *bipartite.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, 24)
	for attempt := 0; attempt < 1000; attempt++ {
		for i := range counts {
			counts[i] = rng.Intn(61)
		}
		ft := mustTable(t, 60, counts)
		pert, _, err := belief.AlphaCompliant(belief.UniformWidth(ft.Frequencies(), 0.08), ft.Frequencies(), 0.7, rng)
		if err != nil {
			t.Fatal(err)
		}
		g := buildGraph(t, pert, ft)
		if _, err := g.IdentityMatching(); err == nil {
			continue
		}
		if ok, err := g.Feasible(context.Background()); err != nil {
			t.Fatal(err)
		} else if ok {
			return g
		}
	}
	t.Fatal("no feasible graph without the identity matching in 1000 attempts")
	return nil
}
