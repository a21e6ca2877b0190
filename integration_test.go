package anonrisk

// End-to-end integration tests closing the loop between the library's
// id-space convention (anonymized item x′ represented by x, the identity of
// the hidden original) and a real attack against a concretely anonymized
// release: the hacker sees only the release and its own belief function over
// ORIGINAL items; cracks are counted through the secret key.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/anonymize"
	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/matching"
)

// hackerGraph builds the consistency graph exactly as a hacker would: from
// the released (anonymized) database's observed frequencies and the belief
// function over original items. Edge (a, x): released id a may be original
// item x.
func hackerGraph(t *testing.T, release *Database, bf *belief.Function) *bipartite.Explicit {
	t.Helper()
	freqs := release.Frequencies()
	n := release.Items()
	adj := make([][]int, n)
	for a := 0; a < n; a++ {
		for x := 0; x < n; x++ {
			if bf.Contains(x, freqs[a]) {
				adj[a] = append(adj[a], x)
			}
		}
	}
	e, err := bipartite.NewExplicit(n, adj)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestIdSpaceConventionMatchesRealAttack verifies that the library's
// id-space graph is the hacker's graph with rows permuted by the key, and
// that expected cracks agree between both views.
func TestIdSpaceConventionMatchesRealAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 20; trial++ {
		plan := datagen.GroupPlan{Name: "itg", Items: 8 + rng.Intn(5), Transactions: 60,
			Groups: 5, Singletons: 3, MedianGapFreq: 0.03, MeanGapFreq: 0.08}
		db, err := plan.Database(rng)
		if err != nil {
			t.Fatal(err)
		}
		release, key, err := Anonymize(db, rng)
		if err != nil {
			t.Fatal(err)
		}
		bf := belief.RandomCompliant(db.Frequencies(), 0.05, rng)

		// Library view: id-space graph from the original data.
		idGraph, err := ConsistencyGraph(bf, db)
		if err != nil {
			t.Fatal(err)
		}
		// Hacker view: graph over released ids.
		hg := hackerGraph(t, release, bf)

		// The two must agree through the key: edge (a, x) in the hacker's
		// graph iff edge (ToOrig[a]′, x) in the id-space graph.
		n := db.Items()
		for a := 0; a < n; a++ {
			for x := 0; x < n; x++ {
				want := idGraph.HasEdge(key.ToOrig[a], x)
				if got := hg.HasEdge(a, x); got != want {
					t.Fatalf("trial %d: edge (%d,%d) hacker=%v idspace=%v", trial, a, x, got, want)
				}
			}
		}

		// Expected cracks agree: in the hacker view, a crack is the event
		// that released id a maps to ToOrig[a].
		probs, err := hg.EdgeInclusionProbabilityCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		hackerExp := 0.0
		for a := 0; a < n; a++ {
			hackerExp += probs[a][key.ToOrig[a]]
		}
		idExp, err := core.ExactExpectedCracksCtx(context.Background(), idGraph.ToExplicit())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(hackerExp-idExp) > 1e-9 {
			t.Fatalf("trial %d: hacker-view E(X) %v vs id-space %v", trial, hackerExp, idExp)
		}
	}
}

// TestConcreteAttackCracksCountThroughKey runs a full concrete attack: the
// hacker samples consistent crack mappings in the id space, converts them to
// guesses about released ids, and the owner scores them with the key. The
// average must match the simulation's own crack counter.
func TestConcreteAttackCracksCountThroughKey(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	plan := datagen.GroupPlan{Name: "atk", Items: 12, Transactions: 80,
		Groups: 6, Singletons: 4, MedianGapFreq: 0.02, MeanGapFreq: 0.06}
	db, err := plan.Database(rng)
	if err != nil {
		t.Fatal(err)
	}
	_, key, err := Anonymize(db, rng)
	if err != nil {
		t.Fatal(err)
	}
	bf := belief.UniformWidth(db.Frequencies(), 0.03)
	g, err := bipartite.Build(bf, dataset.GroupItems(db.Table()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := matching.NewSampler(context.Background(), g, rng)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 300
	totalScored, totalCounted := 0, 0
	for k := 0; k < samples; k++ {
		for sw := 0; sw < 3; sw++ {
			s.Step()
		}
		m := s.Matching() // m[x] = anonymized twin id (id space)
		// Convert to a guess about released ids: the id-space matching says
		// "item x is hidden behind the same released id as item m[x]", i.e.
		// released id ToAnon[m[x]] is guessed to be x.
		guess := make([]int, db.Items())
		for x, w := range m {
			guess[key.ToAnon[w]] = x
		}
		cm, err := anonymize.NewCrackMapping(guess)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cm.Cracks(key)
		if err != nil {
			t.Fatal(err)
		}
		totalScored += c
		totalCounted += s.Cracks()
	}
	if totalScored != totalCounted {
		t.Fatalf("key-scored cracks %d != sampler-counted cracks %d", totalScored, totalCounted)
	}
}
