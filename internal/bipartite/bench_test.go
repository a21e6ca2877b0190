package bipartite

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/dataset"
)

func benchGraph(b *testing.B, n int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	m := 10 * n
	counts := make([]int, n)
	for i := range counts {
		counts[i] = rng.Intn(m + 1)
	}
	ft, err := dataset.NewTable(m, counts)
	if err != nil {
		b.Fatal(err)
	}
	gr := dataset.GroupItems(ft)
	bf := belief.UniformWidth(ft.Frequencies(), gr.MedianGap())
	g, err := Build(bf, gr)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkBuildGraph10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 10000
	m := 10 * n
	counts := make([]int, n)
	for i := range counts {
		counts[i] = rng.Intn(m + 1)
	}
	ft, err := dataset.NewTable(m, counts)
	if err != nil {
		b.Fatal(err)
	}
	gr := dataset.GroupItems(ft)
	bf := belief.UniformWidth(ft.Frequencies(), gr.MedianGap())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(bf, gr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOutdegrees10k(b *testing.B) {
	g := benchGraph(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Outdegrees()
	}
}

func BenchmarkPropagate10k(b *testing.B) {
	g := benchGraph(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.PropagateCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerfectMatching10k(b *testing.B) {
	g := benchGraph(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.PerfectMatchingCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountPerfectMatchings16(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	e := RandomExplicit(16, 0.5, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.CountPerfectMatchingsCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHopcroftKarp1k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	e := RandomExplicit(1000, 0.01, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MaximumMatchingCtx(context.Background())
	}
}

func BenchmarkRasmussen(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	e := RandomExplicit(30, 0.5, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RasmussenEstimateCtx(context.Background(), e, 100, rng)
	}
}
