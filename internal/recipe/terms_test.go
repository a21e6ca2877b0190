package recipe

// The α search scans one set of O-estimate terms under every probe's mask
// instead of re-running the propagated O-estimate per probe. These tests pin
// the shared-terms search with == against that per-probe estimate, bound its
// allocations per level, and check that the binary search rejects
// precisions it cannot converge to.

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// profileGraph builds a Figure 9 profile's table, its δ_med belief function
// and consistency graph — what Assess-Risk's step 6 builds.
func profileGraph(t testing.TB, plan datagen.GroupPlan) (*dataset.FrequencyTable, *belief.Function, *bipartite.Graph) {
	t.Helper()
	ft, err := plan.Counts(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	gr := dataset.GroupItems(ft)
	bf := belief.UniformWidth(ft.Frequencies(), gr.MedianGap())
	g, err := bipartite.Build(bf, gr)
	if err != nil {
		t.Fatal(err)
	}
	return ft, bf, g
}

// perProbeOEAt is the oracle: the α level as the search evaluated it before
// the terms were shared — the whole graph propagated afresh per run and its
// terms summed under the run's mask, averaged in run order.
func perProbeOEAt(t *testing.T, g *bipartite.Graph, orders [][]int, alpha float64) float64 {
	t.Helper()
	ctx := context.Background()
	n := g.Items()
	total := 0.0
	for _, order := range orders {
		mask := bitset.New(n)
		for _, x := range order[:int(alpha*float64(n)+0.5)] {
			mask.Add(x)
		}
		terms, err := core.GraphTermsCtx(ctx, g, true)
		if err != nil {
			t.Fatal(err)
		}
		v, err := terms.SumCtx(ctx, mask)
		if err != nil {
			t.Fatal(err)
		}
		total += v
	}
	return total / float64(len(orders))
}

func TestSharedTermsMatchPerProbeReference(t *testing.T) {
	ctx := context.Background()
	alphas := make([]float64, 65)
	for i := range alphas {
		alphas[i] = float64(i) / 64
	}
	for _, plan := range []datagen.GroupPlan{datagen.CONNECT, datagen.PUMSB} {
		ft, bf, g := profileGraph(t, plan)
		n := float64(ft.NItems)
		terms, err := core.GraphTermsCtx(ctx, g, true)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: propagation forces %d of %d items", plan.Name, terms.Forced, ft.NItems)
		if plan.Name == datagen.PUMSB.Name && terms.Forced == 0 {
			t.Fatal("PUMSB: want propagation-forced items, so the crack-forced terms are exercised")
		}
		for _, biased := range []bool{false, true} {
			fresh, err := newAlphaSearch(ft, bf, 3, true, biased, rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			shared := &AlphaSearch{n: ft.NItems, orders: fresh.orders, terms: fixedTerms(terms)}
			curve, err := shared.CurveCtx(ctx, alphas)
			if err != nil {
				t.Fatal(err)
			}
			freshCurve, err := fresh.CurveCtx(ctx, alphas)
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range alphas {
				want := perProbeOEAt(t, g, fresh.orders, a)
				got, err := shared.OEAtCtx(ctx, a)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s biased=%v α=%v: shared-terms OEAt = %v, per-probe = %v", plan.Name, biased, a, got, want)
				}
				if curve[i] != want/n || freshCurve[i] != want/n {
					t.Fatalf("%s biased=%v α=%v: Curve = %v (shared) %v (fresh), per-probe = %v",
						plan.Name, biased, a, curve[i], freshCurve[i], want/n)
				}
			}
		}
	}
}

// TestOEAtSharedTermsAllocs bounds what one α level allocates on shared
// terms: the per-run values, the worker's mask (slice and words), the work
// closure and one budget per run's sum — nothing per frequency group or per
// item. A level that propagated again would allocate every group's live
// list for every run.
func TestOEAtSharedTermsAllocs(t *testing.T) {
	const runs = 5
	const maxAllocs = 4 + runs
	ctx := parallel.WithWorkers(context.Background(), 1)
	var got []float64
	for _, plan := range []datagen.GroupPlan{datagen.CONNECT, datagen.PUMSB} {
		ft, _, g := profileGraph(t, plan)
		terms, err := core.GraphTermsCtx(ctx, g, true)
		if err != nil {
			t.Fatal(err)
		}
		s := &AlphaSearch{n: ft.NItems, orders: uniformOrders(ft.NItems, runs, rand.New(rand.NewSource(3))), terms: fixedTerms(terms)}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.OEAtCtx(ctx, 0.5); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("%s (%d groups): OEAtCtx allocates %v per level, want <= %d", plan.Name, g.NumGroups(), allocs, maxAllocs)
		}
		got = append(got, allocs)
	}
	if got[0] != got[1] {
		t.Errorf("OEAtCtx allocations depend on the profile: %v", got)
	}
}

func TestMaxAlphaWithinRejectsNonPositivePrecision(t *testing.T) {
	ft, bf, _ := profileGraph(t, datagen.CONNECT)
	s, err := NewAlphaSearch(ft, bf, 5, true, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.OEAtCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	crackBudget := full / 2 // OE(1) exceeds it, so the search has to bisect
	for _, precision := range []float64{0, -1, math.NaN()} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		_, err := s.MaxAlphaWithinCtx(ctx, crackBudget, precision)
		elapsed := time.Since(start)
		cancel()
		if err == nil || budget.IsBudgetError(err) {
			t.Errorf("precision %v: err = %v, want a non-budget error", precision, err)
		}
		if elapsed > time.Second {
			t.Errorf("precision %v: took %v, want an immediate error", precision, elapsed)
		}
	}

	// NaN levels are rejected like any level outside [0, 1].
	if _, err := s.OEAtCtx(context.Background(), math.NaN()); err == nil {
		t.Error("OEAtCtx(NaN): want an error")
	}
	if _, err := s.CurveCtx(context.Background(), []float64{0.5, math.NaN()}); err == nil {
		t.Error("CurveCtx with a NaN level: want an error")
	}

	// A positive precision finer than float64 can resolve stops once the
	// bracket can no longer be halved, within the coarse answer's bracket.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	fine, err := s.MaxAlphaWithinCtx(ctx, crackBudget, 1e-300)
	if err != nil {
		t.Fatalf("precision 1e-300: %v", err)
	}
	coarse, err := s.MaxAlphaWithinCtx(ctx, crackBudget, 1.0/64)
	if err != nil {
		t.Fatal(err)
	}
	if fine < coarse || fine > coarse+1.0/64 {
		t.Errorf("precision 1e-300 gives α_max %v, outside the 1/64 bracket [%v, %v]", fine, coarse, coarse+1.0/64)
	}
}
