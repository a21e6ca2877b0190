package bipartite

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/belief"
	"repro/internal/dataset"
)

func randomDiffFor(rng *rand.Rand, ft *dataset.FrequencyTable) *dataset.CountsDiff {
	d := &dataset.CountsDiff{}
	if rng.Intn(2) == 0 {
		d.DTransactions = 1 + rng.Intn(5)
	}
	newM := ft.NTransactions + d.DTransactions
	k := 1 + rng.Intn(ft.NItems)
	for x := 0; x < ft.NItems && len(d.Items) < k; x++ {
		if rng.Intn(2) == 1 {
			continue
		}
		c := rng.Intn(newM + 1)
		if c == ft.Counts[x] {
			c = (c + 1) % (newM + 1)
		}
		d.Items = append(d.Items, x)
		d.Deltas = append(d.Deltas, c-ft.Counts[x])
	}
	return d
}

// graphEqual compares every field of the two graphs, including the
// unexported prefix sums and flat candidate layout — the full structural
// state downstream math reads.
func graphEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.Freqs, want.Freqs) {
		t.Fatalf("Freqs diverged\n got %v\nwant %v", got.Freqs, want.Freqs)
	}
	if !reflect.DeepEqual(got.GroupSize, want.GroupSize) {
		t.Fatalf("GroupSize diverged\n got %v\nwant %v", got.GroupSize, want.GroupSize)
	}
	if !reflect.DeepEqual(got.GroupItems, want.GroupItems) {
		t.Fatalf("GroupItems diverged\n got %v\nwant %v", got.GroupItems, want.GroupItems)
	}
	if !reflect.DeepEqual(got.ItemGroup, want.ItemGroup) {
		t.Fatalf("ItemGroup diverged\n got %v\nwant %v", got.ItemGroup, want.ItemGroup)
	}
	if !reflect.DeepEqual(got.ItemLo, want.ItemLo) || !reflect.DeepEqual(got.ItemHi, want.ItemHi) {
		t.Fatalf("belief ranges diverged\n got lo=%v hi=%v\nwant lo=%v hi=%v",
			got.ItemLo, got.ItemHi, want.ItemLo, want.ItemHi)
	}
	if !reflect.DeepEqual(got.prefix, want.prefix) {
		t.Fatalf("prefix diverged\n got %v\nwant %v", got.prefix, want.prefix)
	}
	if !reflect.DeepEqual(got.flat, want.flat) {
		t.Fatalf("flat layout diverged\n got %v\nwant %v", got.flat, want.flat)
	}
	if !reflect.DeepEqual(got.candBase, want.candBase) || !reflect.DeepEqual(got.candSpan, want.candSpan) {
		t.Fatalf("candidate windows diverged\n got base=%v span=%v\nwant base=%v span=%v",
			got.candBase, got.candSpan, want.candBase, want.candSpan)
	}
	if !got.compliant.Equal(want.compliant) {
		t.Fatalf("compliance words diverged\n got %v\nwant %v", got.compliant.Bools(), want.compliant.Bools())
	}
	if !reflect.DeepEqual(got.invSpan, want.invSpan) {
		t.Fatalf("outdegree reciprocals diverged\n got %v\nwant %v", got.invSpan, want.invSpan)
	}
}

// TestRebinMatchesBuild is the structural half of the delta-equivalence
// property: over random (table, diff) pairs — applied singly and in chains —
// a Rebin-patched graph is field-for-field identical to Build against the
// post-diff grouping and belief function.
func TestRebinMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 250; trial++ {
		n := 2 + rng.Intn(10)
		m := 6 + rng.Intn(25)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft, err := dataset.NewTable(m, counts)
		if err != nil {
			t.Fatal(err)
		}
		gr := dataset.GroupItems(ft)
		deltaMed := gr.MedianGap()
		bf := belief.UniformWidth(ft.Frequencies(), deltaMed)
		g, err := Build(bf, gr)
		if err != nil {
			t.Fatal(err)
		}
		steps := 1 + rng.Intn(4)
		for step := 0; step < steps; step++ {
			d := randomDiffFor(rng, ft)
			if err := ft.ApplyDiff(d); err != nil {
				t.Fatalf("trial %d step %d: ApplyDiff: %v", trial, step, err)
			}
			postGr, rd, err := dataset.ApplyDiffGrouping(gr, ft, d)
			if err != nil {
				t.Fatalf("trial %d step %d: ApplyDiffGrouping: %v", trial, step, err)
			}
			postMed := postGr.MedianGap()
			postBF := belief.UniformWidth(ft.Frequencies(), postMed)
			up := RebinUpdate{
				Grouping:         postGr,
				Delta:            rd,
				ChangedIntervals: rd.Moved,
				AllIntervals:     postMed != deltaMed || d.DTransactions != 0,
			}
			if err := g.Rebin(postBF, up); err != nil {
				t.Fatalf("trial %d step %d: Rebin: %v", trial, step, err)
			}
			want, err := Build(postBF, postGr)
			if err != nil {
				t.Fatalf("trial %d step %d: Build: %v", trial, step, err)
			}
			graphEqual(t, g, want)
			gr, deltaMed = postGr, postMed
		}
	}
}

func TestRebinRejectsMismatch(t *testing.T) {
	ft, err := dataset.NewTable(10, []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	gr := dataset.GroupItems(ft)
	bf := belief.Ignorant(3)
	g, err := Build(bf, gr)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Rebin(bf, RebinUpdate{}); err == nil {
		t.Error("Rebin without grouping/delta: want error")
	}
	if err := g.Rebin(belief.Ignorant(4), RebinUpdate{Grouping: gr, Delta: &dataset.RebinDelta{FirstGroup: 3}}); err == nil {
		t.Error("Rebin with mismatched belief domain: want error")
	}
	if err := g.Rebin(bf, RebinUpdate{Grouping: gr, Delta: &dataset.RebinDelta{FirstGroup: 9}}); err == nil {
		t.Error("Rebin with out-of-range FirstGroup: want error")
	}
	if err := g.Rebin(bf, RebinUpdate{Grouping: gr, Delta: &dataset.RebinDelta{FirstGroup: 3}, ChangedIntervals: []int{7}}); err == nil {
		t.Error("Rebin with out-of-range changed interval: want error")
	}
}

// solveLoMinusEps finds an interval lower bound lo such that the runtime
// subtraction lo - belief.Epsilon lands EXACTLY on f, by nudging the naive
// f + ε candidate a few ulps. Not every f admits one (rounding can skip
// values); ok reports success.
func solveLoMinusEps(f float64) (lo float64, ok bool) {
	lo = f + belief.Epsilon
	for i := 0; i < 8 && lo-belief.Epsilon > f; i++ {
		lo = math.Nextafter(lo, math.Inf(-1))
	}
	for i := 0; i < 8 && lo-belief.Epsilon < f; i++ {
		lo = math.Nextafter(lo, math.Inf(1))
	}
	return lo, lo-belief.Epsilon == f
}

// solveHiPlusEps is the symmetric upper-bound solver: hi + ε == f exactly.
func solveHiPlusEps(f float64) (hi float64, ok bool) {
	hi = f - belief.Epsilon
	for i := 0; i < 8 && hi+belief.Epsilon > f; i++ {
		hi = math.Nextafter(hi, math.Inf(-1))
	}
	for i := 0; i < 8 && hi+belief.Epsilon < f; i++ {
		hi = math.Nextafter(hi, math.Inf(1))
	}
	return hi, hi+belief.Epsilon == f
}

// TestGroupRangeExactEpsilonBoundary drives groupRange at frequencies lying
// EXACTLY at the runtime values of Lo-ε and Hi+ε — the two points where
// Contains flips from admit to reject. The historical Hi+ε bug lived here;
// the Lo-ε audit (see groupRange) concluded SearchFloat64s' ≥ semantics
// already agree with Contains' f ≥ Lo-ε, and this test pins that for 500
// random frequencies rather than the single hand-picked one in
// TestGroupRangeBoundaries. A divergence on either side fails loudly.
func TestGroupRangeExactEpsilonBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	loSolved, hiSolved := 0, 0
	for trial := 0; trial < 500; trial++ {
		f := rng.Float64()
		if lo, ok := solveLoMinusEps(f); ok && lo <= 1 {
			loSolved++
			iv := belief.Interval{Lo: lo, Hi: math.Min(1, lo+rng.Float64()*0.1)}
			if !iv.Contains(f) {
				t.Fatalf("trial %d: Contains(%v) false at exact Lo-ε (lo=%v)", trial, f, lo)
			}
			freqs := []float64{f}
			glo, ghi := groupRange(freqs, iv)
			if glo > ghi || glo != 0 {
				t.Fatalf("trial %d: groupRange excludes f=%v at exact Lo-ε (lo=%v): [%d,%d]",
					trial, f, lo, glo, ghi)
			}
		}
		if hi, ok := solveHiPlusEps(f); ok && hi >= 0 {
			hiSolved++
			iv := belief.Interval{Lo: math.Max(0, hi-rng.Float64()*0.1), Hi: hi}
			if !iv.Contains(f) {
				t.Fatalf("trial %d: Contains(%v) false at exact Hi+ε (hi=%v)", trial, f, hi)
			}
			freqs := []float64{f}
			glo, ghi := groupRange(freqs, iv)
			if glo > ghi {
				t.Fatalf("trial %d: groupRange excludes f=%v at exact Hi+ε (hi=%v): [%d,%d]",
					trial, f, hi, glo, ghi)
			}
		}
		// One ulp past the slack on each side must be excluded by both.
		pastLo := math.Nextafter(f+belief.Epsilon, math.Inf(1))
		for pastLo-belief.Epsilon <= f {
			pastLo = math.Nextafter(pastLo, math.Inf(1))
		}
		iv := belief.Interval{Lo: pastLo, Hi: math.Min(1, pastLo+0.05)}
		if iv.Contains(f) {
			t.Fatalf("trial %d: Contains admits f=%v one ulp past Lo-ε", trial, f)
		}
		if glo, ghi := groupRange([]float64{f}, iv); glo <= ghi {
			t.Fatalf("trial %d: groupRange covers f=%v one ulp past Lo-ε", trial, f)
		}
	}
	if loSolved < 100 || hiSolved < 100 {
		t.Fatalf("exact-boundary solver hit too few cases: lo=%d hi=%d of 500", loSolved, hiSolved)
	}
}

// TestHasEdgeMatchesContainsExactLoEps extends the 200-random-table
// HasEdge==Contains agreement property with belief intervals whose lower
// bound is Nextafter-solved so an observed frequency sits exactly at Lo-ε
// at runtime — the boundary the random ±ε shifts of
// TestHasEdgeMatchesContains only approximate (the float rounding of
// f+ε-ε rarely returns to f).
func TestHasEdgeMatchesContainsExactLoEps(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	exact := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		m := 8 + rng.Intn(12)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft, err := dataset.NewTable(m, counts)
		if err != nil {
			t.Fatal(err)
		}
		freqs := ft.Frequencies()
		ivs := make([]belief.Interval, n)
		for i := range ivs {
			f := freqs[rng.Intn(n)]
			if lo, ok := solveLoMinusEps(f); ok && lo <= 1 {
				exact++
				ivs[i] = belief.Interval{Lo: lo, Hi: math.Min(1, lo+rng.Float64()*0.3)}
			} else {
				a, b := rng.Float64(), rng.Float64()
				if a > b {
					a, b = b, a
				}
				ivs[i] = belief.Interval{Lo: a, Hi: b}
			}
		}
		bf := belief.MustNew(ivs)
		g := buildGraph(t, bf, ft)
		for x := 0; x < n; x++ {
			for w := 0; w < n; w++ {
				if got, want := g.HasEdge(w, x), bf.Contains(x, freqs[w]); got != want {
					t.Fatalf("trial %d: HasEdge(%d,%d)=%v but Contains(%d, %v)=%v (interval %v)",
						trial, w, x, got, x, freqs[w], want, bf.Interval(x))
				}
			}
		}
	}
	if exact < 200 {
		t.Fatalf("only %d exact Lo-ε intervals across 200 trials; solver too weak", exact)
	}
}
