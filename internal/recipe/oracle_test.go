package recipe

// Recipe-level lemma oracle and the worker-count determinism contract: the
// α sweep at full compliancy must reproduce the closed-form chain O-estimate,
// and every sweep must be bit-identical at any worker count for a fixed seed.

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/parallel"
)

// TestCurveFullComplianceMatchesChainOE: at α = 1 every run's compliant set is
// the whole domain, so the averaged sweep collapses to the plain O-estimate,
// which on chain shapes has the §5.2 closed form.
func TestCurveFullComplianceMatchesChainOE(t *testing.T) {
	specs := []core.ChainSpec{
		core.Figure4aChain(),
		{GroupSizes: []int{4, 6, 4}, Exclusive: []int{2, 3, 2}, Shared: []int{3, 4}},
	}
	for _, spec := range specs {
		counts := make([]int, len(spec.GroupSizes))
		for i := range counts {
			counts[i] = 10 + 25*i
		}
		ft, bf, err := spec.Realize(100, counts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := spec.OEstimate()
		if err != nil {
			t.Fatal(err)
		}
		search, err := NewAlphaSearch(ft, bf, 3, false, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		curve, err := search.CurveCtx(context.Background(), []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		got := curve[0] * float64(ft.NItems)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%+v: Curve(1)·n = %v, closed-form OE = %v", spec, got, want)
		}
		at, err := search.OEAtCtx(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(at-want) > 1e-9 {
			t.Errorf("%+v: OEAt(1) = %v, closed-form OE = %v", spec, at, want)
		}
	}
}

// curveAt evaluates a fixed-seed compliancy sweep at the given worker count.
func curveAt(t *testing.T, workers int) []float64 {
	t.Helper()
	ft := mustTable(t, 60, []int{2, 2, 7, 7, 7, 12, 18, 18, 25, 25, 33, 33, 33, 42, 51})
	bf := belief.UniformWidth(ft.Frequencies(), 0.06)
	search, err := NewAlphaSearch(ft, bf, 4, true, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := parallel.WithWorkers(context.Background(), workers)
	curve, err := search.CurveCtx(ctx, []float64{0, 0.2, 0.4, 0.6, 0.8, 1})
	if err != nil {
		t.Fatal(err)
	}
	return curve
}

func TestCurveBitIdenticalAcrossWorkerCounts(t *testing.T) {
	ref := curveAt(t, 1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := curveAt(t, workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d: curve[%d] = %v differs from serial %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// assessAt runs the full recipe at the given worker count.
func assessAt(t *testing.T, workers int) *Result {
	t.Helper()
	ft := mustTable(t, 60, []int{2, 2, 7, 7, 7, 12, 18, 18, 25, 25, 33, 33, 33, 42, 51})
	ctx := parallel.WithWorkers(context.Background(), workers)
	res, err := AssessRiskCtx(ctx, ft, Options{
		Tolerance: 0.15,
		Propagate: true,
		Rng:       rand.New(rand.NewSource(9)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAssessRiskBitIdenticalAcrossWorkerCounts(t *testing.T) {
	ref := assessAt(t, 1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := assessAt(t, workers)
		if got.Disclose != ref.Disclose || got.Stage != ref.Stage ||
			got.AlphaMax != ref.AlphaMax || got.OEFull != ref.OEFull {
			t.Errorf("workers=%d: result (%v, %v, %v, %v) differs from serial (%v, %v, %v, %v)",
				workers, got.Disclose, got.Stage, got.AlphaMax, got.OEFull,
				ref.Disclose, ref.Stage, ref.AlphaMax, ref.OEFull)
		}
		if got.Workers != workers {
			t.Errorf("result records %d workers, want %d", got.Workers, workers)
		}
	}
}

func TestResultRecordsTiming(t *testing.T) {
	res := assessAt(t, 1)
	if res.Wall <= 0 {
		t.Errorf("Result.Wall = %v, want > 0", res.Wall)
	}
	// CPU is 0 only on platforms without rusage; on unix it must move.
	if parallel.CPUTime() > 0 && res.CPU < 0 {
		t.Errorf("Result.CPU = %v, want >= 0", res.CPU)
	}
}
