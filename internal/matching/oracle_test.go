package matching

// The sampler kernel before its 32-bit rewrite, kept as the oracle the
// lockstep tests compare the production kernel against: []int state, the
// two-sided range test, and a crack counter kept current by swap's ±1
// deltas and reseed's recount. Both kernels consume the same stream words
// in the same order, so from one seed they must visit the same matchings,
// accept the same proposals and count the same cracks.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

type oracleSampler struct {
	paperMoves bool

	g *bipartite.Graph

	flat     []int
	candBase []int
	candSpan []int
	itemLo   []int
	itemHi   []int
	itemGrp  []int

	anonOf []int
	itemOf []int
	open   []int
	perm   []int
	batch  [sweepBatch]uint64

	seedMatch    []int
	identitySeed bool

	cracks int

	rng parallel.Stream
}

// newOracle binds an oracle sampler to g and reseeds it from seed, as
// Sampler.Reset does.
func newOracle(t testing.TB, g *bipartite.Graph, seed int64) *oracleSampler {
	t.Helper()
	ctx := context.Background()
	n := g.Items()
	match, err := g.IdentityMatching()
	identity := err == nil
	if !identity {
		if match, err = g.PerfectMatchingCtx(ctx); err != nil {
			t.Fatal(err)
		}
	}
	p, err := g.PropagateCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	forced := make([]bool, n)
	for _, fp := range p.Forced {
		forced[fp.Item] = true
	}
	var open []int
	for x, f := range forced {
		if !f {
			open = append(open, x)
		}
	}
	s := &oracleSampler{g: g, open: open, seedMatch: match, identitySeed: identity}
	s.flat, s.candBase, s.candSpan = g.CandidateLayout()
	s.itemLo, s.itemHi, s.itemGrp = g.ItemLo, g.ItemHi, g.ItemGroup
	s.anonOf = make([]int, n)
	s.itemOf = make([]int, n)
	s.perm = make([]int, len(open))
	s.rng = parallel.NewStream(seed)
	s.reseed()
	return s
}

func (s *oracleSampler) reseed() {
	copy(s.anonOf, s.seedMatch)
	if s.identitySeed {
		for _, group := range s.g.GroupItems {
			for i := len(group) - 1; i > 0; i-- {
				j := int(s.rng.Uintn(uint64(i + 1)))
				a, b := group[i], group[j]
				s.anonOf[a], s.anonOf[b] = s.anonOf[b], s.anonOf[a]
			}
		}
	}
	cracks := 0
	for x, w := range s.anonOf {
		s.itemOf[w] = x
		if w == x {
			cracks++
		}
	}
	s.cracks = cracks
}

func (s *oracleSampler) Sweep() int {
	perm := s.perm
	copy(perm, s.open)
	s.rng.Shuffle(perm)
	anonOf := s.anonOf
	itemLo, itemHi, itemGrp := s.itemLo, s.itemHi, s.itemGrp
	accepted := 0
	for k, i := range s.open {
		j := perm[k]
		if i == j {
			continue
		}
		wi, wj := anonOf[i], anonOf[j]
		gj, gi := itemGrp[wj], itemGrp[wi]
		if itemLo[i] <= gj && gj <= itemHi[i] && itemLo[j] <= gi && gi <= itemHi[j] {
			s.swap(i, j)
			accepted++
		}
	}
	return accepted
}

func (s *oracleSampler) swap(i, j int) {
	wi, wj := s.anonOf[i], s.anonOf[j]
	d := 0
	if wi == i {
		d--
	}
	if wj == j {
		d--
	}
	if wj == i {
		d++
	}
	if wi == j {
		d++
	}
	s.cracks += d
	s.anonOf[i], s.anonOf[j] = wj, wi
	s.itemOf[wi], s.itemOf[wj] = j, i
}

func (s *oracleSampler) TargetedSweep() int {
	n := len(s.open)
	if n == 0 {
		return 0
	}
	n32 := uint32(n)
	itemThresh := -n32 % n32
	accepted := 0
	for done := 0; done < n; done += sweepBatch {
		accepted += s.proposeBatch(s.batch[:min(sweepBatch, n-done)], itemThresh)
	}
	return accepted
}

func (s *oracleSampler) proposeBatch(buf []uint64, itemThresh uint32) int {
	anonOf, itemOf, open := s.anonOf, s.itemOf, s.open
	flat, candBase, candSpan := s.flat, s.candBase, s.candSpan
	itemLo, itemHi, itemGrp := s.itemLo, s.itemHi, s.itemGrp
	un := uint64(len(open))
	state := s.rng
	for idx := range buf {
		buf[idx] = state.Uint64()
	}
	for idx, word := range buf {
		m := (word >> 32) * un
		for uint32(m) < itemThresh {
			m = (state.Uint64() >> 32) * un
		}
		i := open[m>>32]
		span := candSpan[i]
		us := uint64(uint32(span))
		m2 := (word & 0xffffffff) * us
		if lo := uint32(m2); lo < uint32(span) {
			thresh := -uint32(span) % uint32(span)
			for lo < thresh {
				m2 = (state.Uint64() & 0xffffffff) * us
				lo = uint32(m2)
			}
		}
		buf[idx] = uint64(i)<<32 | uint64(uint32(flat[candBase[i]+int(m2>>32)]))
	}
	s.rng = state
	cracks, accepted := s.cracks, 0
	for _, pair := range buf {
		i := int(pair >> 32)
		j := itemOf[uint32(pair)]
		gi := itemGrp[anonOf[i]]
		ok := itemLo[j] <= gi && gi <= itemHi[j]
		if !ok {
			j = i
		}
		wi, wj := anonOf[i], anonOf[j]
		cracks += b2i(wj == i) + b2i(wi == j) - b2i(wi == i) - b2i(wj == j)
		anonOf[i], anonOf[j] = wj, wi
		itemOf[wi], itemOf[wj] = j, i
		accepted += b2i(ok)
	}
	s.cracks = cracks
	return accepted
}

func (s *oracleSampler) Step() int {
	if s.paperMoves {
		return s.Sweep()
	}
	return s.TargetedSweep()
}

// oracleEstimate is EstimateCracksCtx run serially on the oracle kernel:
// the same root draw, per-run seeds, schedule and reduction. A run is the
// seed matching newOracle installs, cfg.SeedSweeps burn-in sweeps, then one
// crack count after each of cfg.Samples sweeps.
func oracleEstimate(t testing.TB, g *bipartite.Graph, cfg Config, rng *rand.Rand) *Estimate {
	t.Helper()
	cfg = cfg.withDefaults()
	est := &Estimate{Samples: cfg.Samples, RunMeans: make([]float64, cfg.Runs)}
	root := rng.Int63()
	for run := range est.RunMeans {
		s := newOracle(t, g, parallel.SplitSeed(root, uint64(run)))
		s.paperMoves = cfg.PaperMoves
		for i := 0; i < cfg.SeedSweeps; i++ {
			s.Step()
		}
		total := 0
		for k := 0; k < cfg.Samples; k++ {
			s.Step()
			total += s.cracks
		}
		est.RunMeans[run] = float64(total) / float64(cfg.Samples)
	}
	est.Mean = dataset.Mean(est.RunMeans)
	est.StdDev = dataset.StdDev(est.RunMeans)
	return est
}

// assertLockstep runs the production and oracle kernels from one seed,
// sweeps of one move kind with a reseed every 50, and fails at the first
// sweep where their accepted counts, crack counts or matchings differ.
func assertLockstep(t *testing.T, name string, g *bipartite.Graph, seed int64, paperMoves bool, sweeps int) {
	t.Helper()
	s := &Sampler{PaperMoves: paperMoves}
	if err := s.Reset(context.Background(), g, seed); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	o := newOracle(t, g, seed)
	o.paperMoves = paperMoves
	sameState := func(step string, k int) {
		t.Helper()
		if got, want := s.Cracks(), o.cracks; got != want {
			t.Fatalf("%s (paper moves %v) %s %d: %d cracks, oracle %d", name, paperMoves, step, k, got, want)
		}
		if got, want := s.Matching(), o.anonOf; !slices.Equal(got, want) {
			t.Fatalf("%s (paper moves %v) %s %d: matching %v, oracle %v", name, paperMoves, step, k, got, want)
		}
	}
	sameState("seed", 0)
	for k := 0; k < sweeps; k++ {
		if k%50 == 49 {
			s.reseed()
			o.reseed()
			sameState("reseed before sweep", k)
		}
		if got, want := s.Step(), o.Step(); got != want {
			t.Fatalf("%s (paper moves %v) sweep %d: %d accepted, oracle %d", name, paperMoves, k, got, want)
		}
		sameState("sweep", k)
	}
}

// assertSameEstimate compares EstimateCracksCtx against the oracle's
// estimate bit for bit.
func assertSameEstimate(t *testing.T, name string, g *bipartite.Graph, cfg Config, seed int64) {
	t.Helper()
	ctx := parallel.WithWorkers(context.Background(), 2)
	got, err := EstimateCracksCtx(ctx, g, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := oracleEstimate(t, g, cfg, rand.New(rand.NewSource(seed)))
	bitsEqual := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !bitsEqual(got.Mean, want.Mean) || !bitsEqual(got.StdDev, want.StdDev) {
		t.Errorf("%s (paper moves %v): estimate %v ± %v, oracle %v ± %v", name, cfg.PaperMoves, got.Mean, got.StdDev, want.Mean, want.StdDev)
	}
	for r := range want.RunMeans {
		if !bitsEqual(got.RunMeans[r], want.RunMeans[r]) {
			t.Errorf("%s (paper moves %v): run %d mean %v, oracle %v", name, cfg.PaperMoves, r, got.RunMeans[r], want.RunMeans[r])
		}
	}
}

// TestKernelMatchesOracleOnProfiles runs both kernels in lockstep on the
// δ_med graphs of four Figure 9 profiles (datagen seeds 1–3), on a chain
// whose sweeps span several batches and on a graph mixing forced and open
// items, and compares their estimates: the default schedule riskd runs on
// the first CONNECT graph, a shorter one on the others.
func TestKernelMatchesOracleOnProfiles(t *testing.T) {
	type namedGraph struct {
		name string
		g    *bipartite.Graph
	}
	var graphs []namedGraph
	for _, plan := range []datagen.GroupPlan{datagen.CONNECT, datagen.CHESS, datagen.MUSHROOM, datagen.ACCIDENTS} {
		for seed := int64(1); seed <= 3; seed++ {
			graphs = append(graphs, namedGraph{fmt.Sprintf("%s seed %d", plan.Name, seed), profileGraph(t, plan, seed)})
		}
	}
	graphs = append(graphs, namedGraph{"chain", batchChainGraph(t)}, namedGraph{"forced and open", mixedGraph(t)})
	short := Config{SeedSweeps: 10, Samples: 260, Runs: 3}
	for _, paperMoves := range []bool{false, true} {
		for k, ng := range graphs {
			assertLockstep(t, ng.name, ng.g, int64(100+k), paperMoves, 200)
			cfg := short
			if k == 0 {
				cfg = Config{}
			}
			cfg.PaperMoves = paperMoves
			assertSameEstimate(t, ng.name, ng.g, cfg, int64(k+1))
		}
	}
}

// TestKernelMatchesOracleOnGreedySeeds covers graphs without the identity
// matching: 200 random α-compliant graphs, each seeded from the greedy
// perfect matching, where forced pairs need not be cracks.
func TestKernelMatchesOracleOnGreedySeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfg := Config{SeedSweeps: 5, Samples: 130, Runs: 2}
	found := 0
	for attempt := 0; found < 200; attempt++ {
		if attempt == 20000 {
			t.Fatalf("only %d feasible non-compliant graphs in %d attempts", found, attempt)
		}
		n := 8 + rng.Intn(40)
		m := 60
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft := mustTable(t, m, counts)
		base := belief.UniformWidth(ft.Frequencies(), 0.03+0.1*rng.Float64())
		pert, _, err := belief.AlphaCompliant(base, ft.Frequencies(), 0.4+0.5*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		g := buildGraph(t, pert, ft)
		if _, err := g.IdentityMatching(); err == nil {
			continue
		}
		if ok, err := g.Feasible(context.Background()); err != nil {
			t.Fatal(err)
		} else if !ok {
			continue
		}
		name := fmt.Sprintf("greedy graph %d", found)
		for _, paperMoves := range []bool{false, true} {
			assertLockstep(t, name, g, int64(found), paperMoves, 60)
			cfg.PaperMoves = paperMoves
			assertSameEstimate(t, name, g, cfg, int64(found))
		}
		found++
	}
}
