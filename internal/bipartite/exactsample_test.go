package bipartite

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestExactSamplerCountMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6)
		e := RandomExplicit(n, 0.5, rng)
		want, err := e.CountPerfectMatchingsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewExactSamplerCtx(context.Background(), e)
		if want.Sign() == 0 {
			if err != ErrInfeasible {
				t.Fatalf("trial %d: want ErrInfeasible, got %v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.Count().Cmp(want) != 0 {
			t.Fatalf("trial %d: Count %v, want %v", trial, s.Count(), want)
		}
	}
	if _, err := NewExactSamplerCtx(context.Background(), Complete(MaxExactN+1)); err == nil {
		t.Error("oversized graph: want error")
	}
}

func TestExactSamplerValidMatchings(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	e := RandomExplicit(7, 0.4, rng)
	s, err := NewExactSamplerCtx(context.Background(), e)
	if err != nil {
		t.Skip("random graph infeasible for this seed")
	}
	for k := 0; k < 200; k++ {
		m := s.Sample(rng)
		used := make([]bool, e.N)
		for w, x := range m {
			if used[x] || !e.HasEdge(w, x) {
				t.Fatalf("sample %d invalid: %v", k, m)
			}
			used[x] = true
		}
	}
}

func TestExactSamplerUniform(t *testing.T) {
	// Enumerate all matchings of a small graph and chi-square the sampler's
	// empirical frequencies against uniform.
	rng := rand.New(rand.NewSource(79))
	e := MustExplicit(4, [][]int{{0, 1, 2}, {0, 1, 3}, {1, 2, 3}, {0, 2, 3}})
	var keys []string
	index := map[string]int{}
	if err := e.EnumeratePerfectMatchingsCtx(context.Background(), 0, func(m []int) {
		k := matchKey(m)
		index[k] = len(keys)
		keys = append(keys, k)
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) < 4 {
		t.Fatalf("test graph too rigid: %d matchings", len(keys))
	}
	s, err := NewExactSamplerCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 30000
	hits := make([]int, len(keys))
	for k := 0; k < draws; k++ {
		hits[index[matchKey(s.Sample(rng))]]++
	}
	want := float64(draws) / float64(len(keys))
	chi2 := 0.0
	for _, h := range hits {
		d := float64(h) - want
		chi2 += d * d / want
	}
	// ~len(keys)-1 degrees of freedom; allow a generous bound.
	if limit := 4.0 * float64(len(keys)); chi2 > limit {
		t.Errorf("chi² = %v over %d outcomes (limit %v): not uniform", chi2, len(keys), limit)
	}
}

func matchKey(m []int) string {
	b := make([]byte, len(m))
	for i, x := range m {
		b[i] = byte('a' + x)
	}
	return string(b)
}

func TestExactSamplerCrackExpectation(t *testing.T) {
	// The empirical crack mean from exact samples must match the
	// permanent-based expectation — and so must the MCMC sampler (tested in
	// internal/matching); this anchors the whole simulation chain.
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 5; trial++ {
		n := 4 + rng.Intn(4)
		e := RandomExplicit(n, 0.5, rng)
		s, err := NewExactSamplerCtx(context.Background(), e)
		if err != nil {
			continue
		}
		probs, err := e.EdgeInclusionProbabilityCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for x := 0; x < n; x++ {
			want += probs[x][x]
		}
		const draws = 20000
		total := 0
		for k := 0; k < draws; k++ {
			for w, x := range s.Sample(rng) {
				if w == x {
					total++
				}
			}
		}
		got := float64(total) / draws
		if math.Abs(got-want) > 0.08 {
			t.Errorf("trial %d: empirical E(X) %v, exact %v", trial, got, want)
		}
	}
}
