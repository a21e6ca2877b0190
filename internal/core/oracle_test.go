package core

// The lemma oracle: on domains small enough for the permanent-based direct
// method (n ≤ 7), the closed forms of Lemmas 1–6 and the O-estimate must
// agree exactly with E(X) computed from the matching permanents. This is the
// safety net under the parallel engine — any change that silently shifts the
// numbers breaks these identities before it breaks a tolerance test.

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

const oracleTol = 1e-9

// buildExplicit materializes the consistency graph of (bf, ft) in explicit
// form, with item x's true anonymized twin on the diagonal.
func buildExplicit(t *testing.T, bf *belief.Function, ft *dataset.FrequencyTable) *bipartite.Explicit {
	t.Helper()
	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	return g.ToExplicit()
}

// randomCounts draws n support counts out of m transactions from a small
// value pool, so ties (shared frequency groups) occur with high probability.
func randomCounts(rng *rand.Rand, n, m int) []int {
	pool := make([]int, 1+rng.Intn(n))
	for i := range pool {
		pool[i] = rng.Intn(m + 1)
	}
	counts := make([]int, n)
	for i := range counts {
		counts[i] = pool[rng.Intn(len(pool))]
	}
	return counts
}

// randomMask marks each item independently with probability 1/2.
func randomMask(rng *rand.Rand, n int) []bool {
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = rng.Intn(2) == 0
	}
	return mask
}

// exactSubset sums the diagonal edge-inclusion probabilities over the marked
// items: the exact expected number of cracks among the items of interest.
func exactSubset(t *testing.T, e *bipartite.Explicit, interest []bool) float64 {
	t.Helper()
	probs, err := e.EdgeInclusionProbabilityCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for x := 0; x < e.N; x++ {
		if interest == nil || interest[x] {
			sum += probs[x][x]
		}
	}
	return sum
}

// TestOracleLemma1Ignorant: under the ignorant belief function the exact
// expectation is 1 for every domain, and the O-estimate reproduces it exactly
// (every outdegree is n).
func TestOracleLemma1Ignorant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 7; n++ {
		for trial := 0; trial < 5; trial++ {
			ft, err := dataset.NewTable(40, randomCounts(rng, n, 40))
			if err != nil {
				t.Fatal(err)
			}
			bf := belief.Ignorant(n)
			e := buildExplicit(t, bf, ft)
			exact, err := ExactExpectedCracksCtx(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(exact-1) > oracleTol {
				t.Errorf("n=%d: exact E(X) = %v, Lemma 1 says 1", n, exact)
			}
			if got := ExpectedCracksIgnorant(n); got != 1 {
				t.Errorf("ExpectedCracksIgnorant(%d) = %v", n, got)
			}
			oe, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(oe.Value-1) > oracleTol {
				t.Errorf("n=%d: OE = %v, want exactly 1 on the ignorant shape", n, oe.Value)
			}
		}
	}
}

// TestOracleLemma2IgnorantSubset: among n₁ items of interest the ignorant
// expectation is n₁/n, both exactly and through the masked O-estimate.
func TestOracleLemma2IgnorantSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 2; n <= 7; n++ {
		for trial := 0; trial < 5; trial++ {
			ft, err := dataset.NewTable(40, randomCounts(rng, n, 40))
			if err != nil {
				t.Fatal(err)
			}
			bf := belief.Ignorant(n)
			interest := randomMask(rng, n)
			n1 := 0
			for _, b := range interest {
				if b {
					n1++
				}
			}
			want, err := ExpectedCracksIgnorantSubset(n, n1)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(want-float64(n1)/float64(n)) > oracleTol {
				t.Fatalf("closed form drifted: %v vs %v", want, float64(n1)/float64(n))
			}
			e := buildExplicit(t, bf, ft)
			if got := exactSubset(t, e, interest); math.Abs(got-want) > oracleTol {
				t.Errorf("n=%d n1=%d: exact subset E(X) = %v, Lemma 2 says %v", n, n1, got, want)
			}
			oe, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{Interest: bitset.FromBools(interest)})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(oe.Value-want) > oracleTol {
				t.Errorf("n=%d n1=%d: OE = %v, want exactly %v on the ignorant shape", n, n1, oe.Value, want)
			}
		}
	}
}

// TestOracleLemma3PointValued: the compliant point-valued belief function
// cracks exactly g items in expectation — one per frequency group — and the
// O-estimate is exact on that shape too.
func TestOracleLemma3PointValued(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for n := 1; n <= 7; n++ {
		for trial := 0; trial < 5; trial++ {
			ft, err := dataset.NewTable(40, randomCounts(rng, n, 40))
			if err != nil {
				t.Fatal(err)
			}
			gr := dataset.GroupItems(ft)
			bf := belief.PointValued(ft.Frequencies())
			want := ExpectedCracksPointValued(gr)
			if want != float64(gr.NumGroups()) {
				t.Fatalf("closed form drifted: %v vs %d groups", want, gr.NumGroups())
			}
			e := buildExplicit(t, bf, ft)
			exact, err := ExactExpectedCracksCtx(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(exact-want) > oracleTol {
				t.Errorf("n=%d g=%d: exact E(X) = %v, Lemma 3 says %v", n, gr.NumGroups(), exact, want)
			}
			oe, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(oe.Value-want) > oracleTol {
				t.Errorf("n=%d: OE = %v, want exactly %v on the point-valued shape", n, oe.Value, want)
			}
		}
	}
}

// TestOracleLemma4PointValuedSubset: with items of interest, the point-valued
// expectation is Σᵢ cᵢ/nᵢ over frequency groups.
func TestOracleLemma4PointValuedSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for n := 2; n <= 7; n++ {
		for trial := 0; trial < 5; trial++ {
			ft, err := dataset.NewTable(40, randomCounts(rng, n, 40))
			if err != nil {
				t.Fatal(err)
			}
			gr := dataset.GroupItems(ft)
			bf := belief.PointValued(ft.Frequencies())
			interest := randomMask(rng, n)
			want, err := ExpectedCracksPointValuedSubset(gr, interest)
			if err != nil {
				t.Fatal(err)
			}
			e := buildExplicit(t, bf, ft)
			if got := exactSubset(t, e, interest); math.Abs(got-want) > oracleTol {
				t.Errorf("n=%d: exact subset E(X) = %v, Lemma 4 says %v", n, got, want)
			}
			oe, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{Interest: bitset.FromBools(interest)})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(oe.Value-want) > oracleTol {
				t.Errorf("n=%d: OE = %v, want exactly %v on the point-valued shape", n, oe.Value, want)
			}
		}
	}
}

// smallChains enumerates every structurally valid chain over at most 7 items
// with k = 2 and k = 3 frequency groups.
func smallChains() []ChainSpec {
	var specs []ChainSpec
	// k = 2: n1 + n2 ≤ 7, splits a1 = n1 − e1 ∈ [0, s1], b1 = s1 − a1 = n2 − e2.
	for n1 := 1; n1 <= 6; n1++ {
		for n2 := 1; n1+n2 <= 7; n2++ {
			for e1 := 0; e1 <= n1; e1++ {
				for e2 := 0; e2 <= n2; e2++ {
					s1 := n1 + n2 - e1 - e2
					spec := ChainSpec{GroupSizes: []int{n1, n2}, Exclusive: []int{e1, e2}, Shared: []int{s1}}
					if s1 >= 0 && spec.Validate() == nil {
						specs = append(specs, spec)
					}
				}
			}
		}
	}
	// k = 3: small exhaustive sweep.
	for n1 := 1; n1 <= 3; n1++ {
		for n2 := 1; n2 <= 3; n2++ {
			for n3 := 1; n1+n2+n3 <= 7; n3++ {
				for e1 := 0; e1 <= n1; e1++ {
					for e2 := 0; e2 <= n2; e2++ {
						for e3 := 0; e3 <= n3; e3++ {
							for s1 := 0; s1 <= n1+n2; s1++ {
								s2 := n1 + n2 + n3 - e1 - e2 - e3 - s1
								spec := ChainSpec{
									GroupSizes: []int{n1, n2, n3},
									Exclusive:  []int{e1, e2, e3},
									Shared:     []int{s1, s2},
								}
								if s2 >= 0 && spec.Validate() == nil {
									specs = append(specs, spec)
								}
							}
						}
					}
				}
			}
		}
	}
	return specs
}

// TestOracleLemmas56Chain: for every small valid chain, the Lemma 5/6 closed
// form matches the permanent-based exact expectation on the realized graph,
// and the generic graph O-estimate matches the §5.2 closed-form OE.
func TestOracleLemmas56Chain(t *testing.T) {
	specs := smallChains()
	if len(specs) < 50 {
		t.Fatalf("only %d small chains enumerated; the sweep is broken", len(specs))
	}
	m := 100
	for _, spec := range specs {
		k := len(spec.GroupSizes)
		counts := make([]int, k)
		for i := range counts {
			counts[i] = 10 + 20*i
		}
		ft, bf, err := spec.Realize(m, counts)
		if err != nil {
			t.Fatalf("%+v: realize: %v", spec, err)
		}
		want, err := spec.ExpectedCracks()
		if err != nil {
			t.Fatal(err)
		}
		e := buildExplicit(t, bf, ft)
		exact, err := ExactExpectedCracksCtx(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-want) > oracleTol {
			t.Errorf("%+v: exact E(X) = %v, Lemma 5/6 says %v", spec, exact, want)
		}
		wantOE, err := spec.OEstimate()
		if err != nil {
			t.Fatal(err)
		}
		oe, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(oe.Value-wantOE) > oracleTol {
			t.Errorf("%+v: graph OE = %v, closed form says %v", spec, oe.Value, wantOE)
		}
	}
}

// TestOracleFigure4a pins the paper's worked example: E(X) = 74/45 and
// OE = 197/120.
func TestOracleFigure4a(t *testing.T) {
	spec := Figure4aChain()
	ft, bf, err := spec.Realize(100, []int{30, 70})
	if err != nil {
		t.Fatal(err)
	}
	e := buildExplicit(t, bf, ft)
	exact, err := ExactExpectedCracksCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-74.0/45) > oracleTol {
		t.Errorf("Figure 4(a): exact E(X) = %v, want 74/45", exact)
	}
	oe, err := OEstimateCtx(context.Background(), bf, ft, OEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(oe.Value-197.0/120) > oracleTol {
		t.Errorf("Figure 4(a): OE = %v, want 197/120", oe.Value)
	}
}
