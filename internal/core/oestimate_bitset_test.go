package core

// Bit-for-bit equivalence of the word-parallel O-estimate kernels against
// the historical boolean-slice implementation. The reference below is the
// item-at-a-time loop the bitset rewrite replaced, kept verbatim so the
// oracle cannot drift with the kernel: same division per visit, same
// ascending accumulation order, same four-way propagation switch. Equality
// is exact (==), not tolerance-based — the kernels' contract is identical
// float operation order, not merely close values (DESIGN.md §16).

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/dataset"
)

// referenceOEstimate is the pre-bitset OEstimateGraphCtx, on []bool state.
func referenceOEstimate(g *bipartite.Graph, propagate bool, mask, interest []bool) (value float64, crackable []bool, err error) {
	n := g.Items()
	counted := func(x int) bool { return interest == nil || interest[x] }
	crackable = make([]bool, n)
	if !propagate {
		outdeg := g.Outdegrees()
		for x := 0; x < n; x++ {
			if !g.Compliant(x) || (mask != nil && !mask[x]) {
				continue
			}
			crackable[x] = true
			if counted(x) {
				value += 1 / float64(outdeg[x])
			}
		}
		return value, crackable, nil
	}
	p, err := g.PropagateCtx(context.Background())
	if err != nil {
		return 0, nil, err
	}
	forcedItem := make([]bool, n)
	crackForced := make([]bool, n)
	anonConsumed := make([]bool, n)
	for _, fp := range p.Forced {
		forcedItem[fp.Item] = true
		anonConsumed[fp.Anon] = true
		if fp.Anon == fp.Item {
			crackForced[fp.Item] = true
		}
	}
	for x := 0; x < n; x++ {
		if mask != nil && !mask[x] {
			continue
		}
		switch {
		case crackForced[x]:
			crackable[x] = true
			if counted(x) {
				value++
			}
		case forcedItem[x]:
		case !g.Compliant(x) || anonConsumed[x]:
		default:
			crackable[x] = true
			if counted(x) {
				value += 1 / float64(p.Outdeg[x])
			}
		}
	}
	return value, crackable, nil
}

// boundaryBelief builds intervals whose endpoints land EXACTLY on observed
// frequencies (including ±Epsilon-sensitive point intervals), so the
// equivalence sweep exercises the bin-boundary admission semantics of
// groupRange, not just interior intervals.
func boundaryBelief(freqs []float64, rng *rand.Rand) *belief.Function {
	n := len(freqs)
	ivs := make([]belief.Interval, n)
	for x := range ivs {
		switch rng.Intn(4) {
		case 0: // point belief exactly at the true frequency
			ivs[x] = belief.Interval{Lo: freqs[x], Hi: freqs[x]}
		case 1: // both endpoints exactly on (possibly different) observed bins
			a, b := freqs[rng.Intn(n)], freqs[rng.Intn(n)]
			if a > b {
				a, b = b, a
			}
			ivs[x] = belief.Interval{Lo: a, Hi: b}
		case 2: // lower endpoint on a bin, upper interior
			a := freqs[rng.Intn(n)]
			ivs[x] = belief.Interval{Lo: a, Hi: a + rng.Float64()*0.3}
		default: // generic interior interval
			lo := rng.Float64() * 0.8
			ivs[x] = belief.Interval{Lo: lo, Hi: lo + rng.Float64()*0.3}
		}
		if ivs[x].Hi > 1 {
			ivs[x].Hi = 1
		}
	}
	return belief.MustNew(ivs)
}

func TestOEstimateBitsetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(150)
		m := 10 + rng.Intn(60)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft := mustTable(t, m, counts)
		var bf *belief.Function
		if trial%2 == 0 {
			bf = boundaryBelief(ft.Frequencies(), rng)
		} else {
			bf = belief.RandomCompliant(ft.Frequencies(), rng.Float64()*0.3, rng)
		}
		g, err := bipartite.Build(bf, dataset.GroupItems(ft))
		if err != nil {
			t.Fatal(err)
		}
		var mask, interest []bool
		if rng.Intn(2) == 0 {
			mask = make([]bool, n)
			for i := range mask {
				mask[i] = rng.Intn(3) > 0
			}
		}
		if rng.Intn(2) == 0 {
			interest = make([]bool, n)
			for i := range interest {
				interest[i] = rng.Intn(3) > 0
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
			wantV, wantC, refErr := referenceOEstimate(g, propagate, mask, interest)
			got, gotErr := OEstimateGraphCtx(context.Background(), g, opts)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("trial %d (prop=%v): error mismatch: ref %v, bitset %v", trial, propagate, refErr, gotErr)
			}
			if refErr != nil {
				continue // both infeasible under propagation
			}
			if got.Value != wantV {
				t.Fatalf("trial %d (prop=%v): bitset OE = %v, reference = %v (must be bit-identical)",
					trial, propagate, got.Value, wantV)
			}
			if !got.Crackable.Equal(bitset.FromBools(wantC)) {
				t.Fatalf("trial %d (prop=%v): crackable sets differ", trial, propagate)
			}
		}
	}
}

// TestOEstimateScanZeroAllocs pins the steady-state allocation count of the
// plain-scan kernel at zero: with the result words preallocated, summing a
// graph's reciprocals over compliance∩mask words allocates nothing. This is
// the core-side row of the allocation-regression suite started in
// internal/matching/alloc_test.go.
func TestOEstimateScanZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 300
	counts := make([]int, n)
	for i := range counts {
		counts[i] = rng.Intn(40)
	}
	ft := mustTable(t, 40, counts)
	bf := belief.RandomCompliant(ft.Frequencies(), 0.1, rng)
	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	mask := bitset.New(n)
	for x := 0; x < n; x += 2 {
		mask.Add(x)
	}
	crack := bitset.New(n)
	comp := g.ComplianceSet().Words()
	inv := g.OutdegreeReciprocals()
	bud := budget.New(context.Background(), budget.Config{CheckEvery: 4096})
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := oeScanWords(bud, n, comp, mask.Words(), nil, crack.Words(), inv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("oeScanWords allocates %v per run, want 0", allocs)
	}
}
