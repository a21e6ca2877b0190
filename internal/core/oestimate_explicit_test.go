package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/dataset"
)

func TestOEstimateExplicitMatchesCompact(t *testing.T) {
	// On interval-structured graphs the explicit-graph estimate must agree
	// with the compact one, with and without propagation, masks and interest.
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		m := 10 + rng.Intn(40)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft := mustTable(t, m, counts)
		bf := belief.RandomCompliant(ft.Frequencies(), rng.Float64()*0.3, rng)
		g, err := bipartite.Build(bf, dataset.GroupItems(ft))
		if err != nil {
			t.Fatal(err)
		}
		e := g.ToExplicit()
		var mask, interest []bool
		if rng.Intn(2) == 0 {
			mask = make([]bool, n)
			for i := range mask {
				mask[i] = rng.Intn(2) == 0
			}
		}
		if rng.Intn(2) == 0 {
			interest = make([]bool, n)
			for i := range interest {
				interest[i] = rng.Intn(2) == 0
			}
		}
		for _, propagate := range []bool{false, true} {
			opts := OEOptions{Propagate: propagate}
			if mask != nil {
				opts.Mask = bitset.FromBools(mask)
			}
			if interest != nil {
				opts.Interest = bitset.FromBools(interest)
			}
			compact, errC := OEstimateGraphCtx(context.Background(), g, opts)
			explicit, errE := OEstimateExplicitCtx(context.Background(), e, opts)
			if (errC == nil) != (errE == nil) {
				t.Fatalf("trial %d (prop=%v): error mismatch %v vs %v", trial, propagate, errC, errE)
			}
			if errC != nil {
				continue
			}
			if math.Abs(compact.Value-explicit.Value) > 1e-9 {
				t.Fatalf("trial %d (prop=%v): compact %v vs explicit %v",
					trial, propagate, compact.Value, explicit.Value)
			}
			if compact.Forced != explicit.Forced {
				t.Fatalf("trial %d (prop=%v): forced %d vs %d",
					trial, propagate, compact.Forced, explicit.Forced)
			}
		}
	}
}

func TestOEstimateExplicitFigure6b(t *testing.T) {
	// Figure 6(b): the irrelevant edge (2',3) inflates the plain estimate
	// (O_3 counts it) but not the exact value.
	e := bipartite.MustExplicit(4, [][]int{{0, 1}, {0, 1, 2}, {2, 3}, {2, 3}})
	res, err := OEstimateExplicitCtx(context.Background(), e, OEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 + 0.5 + 1.0/3 + 0.5
	if math.Abs(res.Value-want) > 1e-12 {
		t.Errorf("OE = %v, want %v (counting the irrelevant edge)", res.Value, want)
	}
}

func TestOEstimateExplicitValidation(t *testing.T) {
	e := bipartite.Complete(3)
	if _, err := OEstimateExplicitCtx(context.Background(), e, OEOptions{Mask: bitset.New(1)}); err == nil {
		t.Error("short mask: want error")
	}
	if _, err := OEstimateExplicitCtx(context.Background(), e, OEOptions{Interest: bitset.New(1)}); err == nil {
		t.Error("short interest: want error")
	}
	infeasible := bipartite.MustExplicit(2, [][]int{{1}, {1}})
	if _, err := OEstimateExplicitCtx(context.Background(), infeasible, OEOptions{Propagate: true}); err == nil {
		t.Error("infeasible + propagate: want error")
	}
	// Without propagation the per-item form still evaluates: item 1's twin
	// is reachable (indegree 2), item 0's is not.
	res, err := OEstimateExplicitCtx(context.Background(), infeasible, OEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0.5 {
		t.Errorf("per-item OE = %v, want 0.5", res.Value)
	}
}

func TestOEResultFractionEmpty(t *testing.T) {
	r := &OEResult{}
	if r.Fraction() != 0 {
		t.Errorf("empty Fraction = %v", r.Fraction())
	}
}
