// Package matching samples consistent crack mappings — perfect matchings of
// the bipartite consistency graph — uniformly at random, reproducing the
// simulation procedure of Section 7.1 of the SIGMOD 2005 paper. The sampled
// crack counts provide the "average simulated estimates" that Figures 10 and
// 11 compare the O-estimates against.
//
// The proposal loop is the hottest kernel in the repo and is written as a
// flat-array kernel over 32-bit state (DESIGN.md §11, §16.3): candidate
// draws are one bounded-rand draw plus one load into a copy of the graph's
// flat candidate layout, acceptance is applied without data-dependent
// branches, cracks are counted once per sample rather than per proposal,
// randomness comes from an inlined SplitMix64 stream (parallel.Stream), and
// all per-run state lives in reusable scratch so steady-state sampling
// allocates nothing.
package matching

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bipartite"
	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// Config tunes the Markov-chain sampler. The paper's procedure starts from
// the identity matching (every item cracked), runs 100,000 permutation-sweep
// iterations to obtain a seed, then emits one sample every 10,000 iterations,
// re-seeding after 250 samples until 5,000 samples are drawn. A run here is
// one seed matching, SeedSweeps burn-in sweeps, then Samples crack counts
// taken one per sweep: the targeted-swap chain's crack count settles within
// 4–5 sweeps of a seed and has an integrated autocorrelation time of 1.4–1.8
// sweeps on every Figure 9 profile, and for an average over a fixed number of
// sweeps thinning never lowers the variance. TestScheduleCoversMixing pins
// the defaults against those measurements, and the package tests validate
// the estimates against exact permanent-based expectations.
type Config struct {
	SeedSweeps int  // the run's burn-in, in sweeps from the seed matching; default 10
	Samples    int  // crack counts per run, one per sweep after the burn-in; default 3000
	Runs       int  // independent runs averaged; default 5 (as in the paper)
	PaperMoves bool // use the paper's blind transpositions instead of targeted swaps
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.SeedSweeps <= 0 {
		c.SeedSweeps = 10
	}
	if c.Samples <= 0 {
		c.Samples = 3000
	}
	if c.Runs <= 0 {
		c.Runs = 5
	}
	return c
}

// Sampler walks the space of consistent perfect matchings of a graph.
//
// Two move kinds are available, both symmetric Metropolis proposals accepted
// exactly when the target is a consistent matching, so both leave the uniform
// distribution stationary:
//
//   - Sweep: the paper's §7.1 procedure — draw a random permutation P of the
//     open items and, for each open item i, swap the anonymized items
//     matched to i and P(i) when both swapped edges remain consistent.
//   - TargetedSweep: for each of |open| proposals, pick a random open item i
//     and a uniform anonymized item w inside i's belief range, and swap i
//     with w's current owner when the displaced edge stays consistent.
//     Choosing from the (state-independent) candidate set makes the
//     transition kernel P(M→M') = (1/|open|)(1/O_i + 1/O_j), symmetric in M
//     and M', while rejecting far fewer proposals than blind transpositions
//     — crucial for narrow intervals over large domains (RETAIL-scale),
//     where the paper compensated with 100,000-iteration seeds instead.
//
// The open items are those degree-1 propagation (Figure 7) leaves unforced.
// A forced pair lies in every consistent perfect matching, so it sits in
// every seed matching and no accepted move can change it: a proposal for a
// forced item is an identity move or a rejection. Sweeping only the open
// items is therefore the same chain without those no-op proposals, and the
// forced cracks are a constant of the graph that bind counts once.
//
// The live state is 32-bit (bind rejects domains of 2^31 or more items):
// the matching and its inverse, each anonymized item's group, each item's
// group range packed into one word, and one record per open item carrying
// its candidate window.
//
// A Sampler is reusable: Reset on the graph it is bound to restarts the
// chain without allocating, which is what makes the R-run estimate
// allocation-free after setup (see runScratch).
type Sampler struct {
	// PaperMoves makes Step use the paper's blind transpositions; the
	// default is targeted swaps.
	PaperMoves bool

	g *bipartite.Graph

	open    []openItem // items propagation leaves unforced, ascending: the only ones sweeps propose for
	cand    []int32    // group-ordered candidate array (g.CandidateLayout)
	rangeOf []uint64   // item x's consistent groups [lo, hi], packed lo | hi<<32
	groupOf []int32    // true group of each anonymized item
	anonOf  []int32    // anonOf[x] = anonymized item currently matched to item x
	itemOf  []int32    // itemOf[w] = item currently holding anonymized item w
	perm    []int      // scratch permutation of the open items for Sweep

	seedMatch    []int32 // base matching reseeds start from
	identitySeed bool    // seedMatch is the identity: shuffle within groups

	forcedCracks int // cracks among the forced pairs, which never move

	batch [sweepBatch]uint64 // word buffer for TargetedSweep: raw draws, then packed proposals

	rng parallel.Stream
}

// openItem is an open item with its candidate window: its consistent
// anonymized items are cand[base : base+span].
type openItem struct {
	item, base, span int32
}

// NewSampler creates a sampler with a fresh seed matching (see reseed). The
// caller's generator contributes exactly one draw — the seed of the
// sampler's internal SplitMix64 stream — so construction stays deterministic
// for a fixed rng. It returns bipartite.ErrInfeasible when no consistent
// matching exists at all.
func NewSampler(ctx context.Context, g *bipartite.Graph, rng *rand.Rand) (*Sampler, error) {
	s := &Sampler{}
	if err := s.Reset(ctx, g, rng.Int63()); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebinds the sampler to g, restarts its random stream at seed, and
// installs a fresh seed matching. Binding to a new graph propagates it once
// and allocates the sampler's arrays (bind); no memory is allocated when the
// sampler is already bound to g, and the per-worker scratch of
// EstimateCracksCtx relies on this to run every chain allocation-free after
// the first. It returns bipartite.ErrInfeasible when the graph admits no
// consistent matching, and an error for domains of 2^31 or more items, past
// the sampler's 32-bit state.
func (s *Sampler) Reset(ctx context.Context, g *bipartite.Graph, seed int64) error {
	if s.g != g {
		if err := s.bind(ctx, g); err != nil {
			return err
		}
	}
	s.rng = parallel.NewStream(seed)
	s.reseed()
	return nil
}

// bind builds the sampler's 32-bit copy of g, establishes the base seed
// matching — the identity when the graph is compliant, a greedy perfect
// matching otherwise (both deterministic, so they are computed once and
// reused by reseed) — lists the items degree-1 propagation leaves open, and
// counts the forced cracks. Propagation charges its own budget under ctx.
//
// Every item of a graph with a perfect matching has a nonempty group range,
// which inRange relies on.
func (s *Sampler) bind(ctx context.Context, g *bipartite.Graph) error {
	n := g.Items()
	if uint64(n) >= 1<<31 {
		return fmt.Errorf("matching: the sampler needs fewer than 2^31 items")
	}
	match, err := g.IdentityMatching()
	identity := err == nil
	if !identity {
		if match, err = g.PerfectMatchingCtx(ctx); err != nil {
			return err
		}
	}
	p, err := g.PropagateCtx(ctx)
	if err != nil {
		return err
	}
	forced := make([]bool, n)
	for _, fp := range p.Forced {
		forced[fp.Item] = true
	}
	flat, candBase, candSpan := g.CandidateLayout()
	open := make([]openItem, 0, n-len(p.Forced))
	for x, f := range forced {
		if !f {
			open = append(open, openItem{item: int32(x), base: int32(candBase[x]), span: int32(candSpan[x])})
		}
	}
	cand := make([]int32, len(flat))
	for k, w := range flat {
		cand[k] = int32(w)
	}
	rangeOf := make([]uint64, n)
	groupOf := make([]int32, n)
	seedMatch := make([]int32, n)
	for x := range rangeOf {
		rangeOf[x] = uint64(uint32(g.ItemLo[x])) | uint64(uint32(g.ItemHi[x]))<<32
		groupOf[x] = int32(g.ItemGroup[x])
		seedMatch[x] = int32(match[x])
	}
	s.g = g
	s.open, s.cand, s.rangeOf, s.groupOf = open, cand, rangeOf, groupOf
	s.anonOf = make([]int32, n)
	s.itemOf = make([]int32, n)
	s.perm = make([]int, len(open))
	s.seedMatch, s.identitySeed = seedMatch, identity
	s.forcedCracks = p.ForcedCracks()
	return nil
}

// inRange reports whether group gr lies in the packed range r = lo | hi<<32
// with one unsigned compare: gr−lo wraps past hi−lo when gr < lo. It needs
// lo ≤ hi, which every item of a bound graph has.
func inRange(r uint64, gr int32) bool {
	lo := uint32(r)
	return uint32(gr)-lo <= uint32(r>>32)-lo
}

// reseed installs a fresh consistent matching: a within-group shuffle of the
// identity when the graph is compliant (already far closer to stationarity
// than the raw identity — its expected crack count is the number of groups,
// not n), or the cached greedy perfect matching otherwise, and rebuilds the
// inverse index — the one O(n) scan per seed.
func (s *Sampler) reseed() {
	copy(s.anonOf, s.seedMatch)
	if s.identitySeed {
		// Shuffle within each frequency group; every such matching is
		// consistent because an item's own group always lies in its range.
		//lint:allow loopbudget one O(n) shuffle per seed as documented above; simulateRun charges per sweep
		for _, group := range s.g.GroupItems {
			for i := len(group) - 1; i > 0; i-- {
				j := int(s.rng.Uintn(uint64(i + 1)))
				a, b := group[i], group[j]
				s.anonOf[a], s.anonOf[b] = s.anonOf[b], s.anonOf[a]
			}
		}
	}
	for x, w := range s.anonOf {
		s.itemOf[w] = int32(x)
	}
}

// Sweep performs one permutation sweep of transposition moves over the open
// items and reports how many were accepted.
func (s *Sampler) Sweep() int {
	perm := s.perm
	for k, o := range s.open {
		perm[k] = int(o.item)
	}
	s.rng.Shuffle(perm)
	anonOf, itemOf, rangeOf, groupOf := s.anonOf, s.itemOf, s.rangeOf, s.groupOf
	accepted := 0
	for k, o := range s.open {
		i, j := o.item, int32(perm[k])
		if i == j {
			continue
		}
		wi, wj := anonOf[i], anonOf[j]
		if inRange(rangeOf[i], groupOf[wj]) && inRange(rangeOf[j], groupOf[wi]) {
			anonOf[i], anonOf[j] = wj, wi
			itemOf[wi], itemOf[wj] = j, i
			accepted++
		}
	}
	return accepted
}

// sweepBatch is the number of proposals TargetedSweep resolves per refill of
// its word buffer, chosen from a BenchmarkTargetedSweep sweep over
// K ∈ {16, 32, 64, 128, 256} (DESIGN.md §16.3).
const sweepBatch = 64

// TargetedSweep performs one targeted-swap proposal per open item and
// reports how many were accepted. See the Sampler documentation for the
// kernel and its symmetry. Proposals run in batches of sweepBatch
// (proposeBatch); the item draw's rejection threshold (-n mod n, n = |open|)
// is computed once per sweep.
func (s *Sampler) TargetedSweep() int {
	n := len(s.open)
	if n == 0 {
		return 0
	}
	n32 := uint32(n)
	itemThresh := -n32 % n32 // (2^32 - n) mod n, the biased low fringe
	accepted := 0
	for done := 0; done < n; done += sweepBatch {
		accepted += s.proposeBatch(s.batch[:min(sweepBatch, n-done)], itemThresh)
	}
	return accepted
}

// proposeBatch draws, resolves and applies len(buf) targeted proposals,
// using buf as its word buffer:
//
//   - ONE 64-bit stream touch per proposal — the high half picks the open
//     item, the low half picks the candidate, each by Lemire's 32-bit
//     multiply-shift (exact for n < 2^31, which bind enforces and even RETAIL
//     clears by five orders of magnitude);
//   - the stream state lives in a stack variable across the batch — no
//     pointer round-trip through the Sampler per draw — and is written back
//     once at the end of the draws.
func (s *Sampler) proposeBatch(buf []uint64, itemThresh uint32) int {
	open, cand := s.open, s.cand
	un := uint64(len(open))
	state := s.rng
	for idx := range buf {
		buf[idx] = state.Uint64()
	}
	// Phase 1: resolve every slot's (item, candidate) pair, packed back into
	// the word buffer in place as item<<32 | candidate. The pairs depend only
	// on the stream words and the graph's static layout — not on the evolving
	// matching — so the iterations are independent and the multiplies and
	// candidate loads pipeline across slots, instead of queueing behind the
	// previous proposal's swap.
	//lint:allow loopbudget one pass over a sweepBatch-sized buffer; simulateRun charges per sweep
	for idx, word := range buf {
		// Open item from the high half: one 32×32→64 multiply against the
		// hoisted threshold.
		m := (word >> 32) * un
		for uint32(m) < itemThresh {
			m = (state.Uint64() >> 32) * un
		}
		o := open[m>>32]
		// An open item keeps at least two candidates: propagation forces
		// every item left with one, so span is never zero.
		span := uint32(o.span)
		// Candidate from the low half: span varies per item, so the fringe
		// test stays lazy as in Stream.Uintn.
		m2 := (word & 0xffffffff) * uint64(span)
		if lo := uint32(m2); lo < span {
			thresh := -span % span
			for lo < thresh {
				m2 = (state.Uint64() & 0xffffffff) * uint64(span)
				lo = uint32(m2)
			}
		}
		buf[idx] = uint64(o.item)<<32 | uint64(uint32(cand[int(o.base)+int(m2>>32)]))
	}
	s.rng = state
	// Phase 2: apply the proposals in slot order against the live matching.
	// Near stationarity accept/reject is a data-dependent coin flip, exactly
	// the branch a predictor cannot learn, so the loop has none: the range
	// test is one unsigned compare, and a rejection turns the swap into the
	// identity swap (i, i) by mask arithmetic — j becomes i and the
	// candidate c becomes i's own wi. On acceptance c is j's current item,
	// so the swap needs no reload of anonOf[j]. A proposal whose candidate
	// is the item's current partner is the identity move and counts as
	// (trivially) accepted. Reslicing the four arrays to one length lets a
	// single register bound every index, which keeps more of the loop's
	// state out of stack spills.
	n := len(s.anonOf)
	anonOf, itemOf, rangeOf, groupOf := s.anonOf, s.itemOf[:n], s.rangeOf[:n], s.groupOf[:n]
	accepted := 0
	for _, pair := range buf {
		i, c := int32(pair>>32), int32(uint32(pair))
		j := itemOf[c]
		wi := anonOf[i]
		ok := b2i(inRange(rangeOf[j], groupOf[wi]))
		keep := -int32(ok) // all ones on acceptance, zero on rejection
		j = i ^ (i^j)&keep
		wj := wi ^ (wi^c)&keep
		anonOf[i], anonOf[j] = wj, wi
		itemOf[wi], itemOf[wj] = j, i
		accepted += ok
	}
	return accepted
}

// b2i converts a bool to 0/1; the compiler lowers this pattern to a
// flag-set instruction, keeping the batched apply loop free of
// data-dependent jumps.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Cracks returns the number of cracked items in the current matching — items
// whose matched anonymized item is their own twin. It scans the open items,
// O(|open|), once per sample; the forced cracks never change and were
// counted by bind.
func (s *Sampler) Cracks() int {
	anonOf := s.anonOf
	cracks := s.forcedCracks
	for _, o := range s.open {
		cracks += b2i(anonOf[o.item] == o.item)
	}
	return cracks
}

// Matching returns a copy of the current matching (item -> anonymized item).
func (s *Sampler) Matching() []int {
	m := make([]int, len(s.anonOf))
	for x, w := range s.anonOf {
		m[x] = int(w)
	}
	return m
}

// Step performs one sweep of the configured move kind.
func (s *Sampler) Step() int {
	if s.PaperMoves {
		return s.Sweep()
	}
	return s.TargetedSweep()
}

// Estimate is a simulation estimate of the expected number of cracks.
type Estimate struct {
	Mean      float64   // mean over runs of the per-run average crack count
	StdDev    float64   // sample standard deviation across runs
	RunMeans  []float64 // per-run averages
	Samples   int       // samples per run
	Proposals int64     // move proposals summed over runs: the operations the estimate charged
}

// Fraction returns the estimate as a fraction of the domain size n.
func (e *Estimate) Fraction(n int) float64 { return e.Mean / float64(n) }

// runScratch is one pool worker's reusable state: a rebindable sampler and
// the worker's batching view of the shared budget. A scratch is owned by
// exactly one ForEachWorker index, so chains reuse its memory run after run
// — after the first run on a worker, a steady-state iteration performs no
// allocations (enforced by TestSimulateRunSteadyStateAllocs).
type runScratch struct {
	s         Sampler
	bud       *budget.Worker
	proposals int64 // proposals charged by the runs this worker finished
}

// EstimateCracksCtx runs the full simulation of Section 7.1: cfg.Runs
// independent runs, each drawing cfg.Samples crack counts from the matching
// space, and returns the across-run mean and standard deviation. Results are
// bit-identical for a given rng regardless of the worker count, because each
// run's random stream is seeded from a single root (parallel.SplitSeed) and
// run means are reduced in run order.
//
// Every run charges one operation per move proposal — |open| per sweep —
// so a deadline or operation limit aborts the chains between sweeps instead
// of hanging; the propagation that binds each worker's sampler to g charges
// its own budget (bipartite.Graph.PropagateCtx). The
// runs execute on at most parallel.Workers(ctx) goroutines and charge ONE
// shared budget atomically (budget.Shared), so an operation limit bounds the
// whole simulation — the same work the serial execution would have done —
// not each run separately. The first budget error (by run index) is returned
// verbatim, so it stays degradable for the caller's cascade; no partial
// estimate is produced.
func EstimateCracksCtx(ctx context.Context, g *bipartite.Graph, cfg Config, rng *rand.Rand) (*Estimate, error) {
	cfg = cfg.withDefaults()
	est := &Estimate{
		Samples:  cfg.Samples,
		RunMeans: make([]float64, cfg.Runs),
	}
	root := rng.Int63()
	shared := budget.NewShared(ctx, budget.Config{})
	workers := parallel.PoolWorkers(ctx, 0, cfg.Runs)
	scratch := make([]runScratch, workers)
	for w := range scratch {
		scratch[w].bud = shared.Worker()
	}
	err := parallel.ForEachWorker(ctx, workers, cfg.Runs, func(worker, run int) error {
		mean, err := simulateRun(ctx, g, cfg, parallel.SplitSeed(root, uint64(run)), &scratch[worker])
		if err != nil {
			return fmt.Errorf("matching: run %d: %w", run, err)
		}
		est.RunMeans[run] = mean
		return nil
	})
	if err != nil {
		return nil, err
	}
	for w := range scratch {
		est.Proposals += scratch[w].proposals
	}
	est.Mean = dataset.Mean(est.RunMeans)
	est.StdDev = dataset.StdDev(est.RunMeans)
	return est, nil
}

// simulateRun executes one independent simulation run on the worker's
// scratch: Reset installs the run's seed matching, SeedSweeps sweeps burn it
// in, and each of the next Samples sweeps contributes one crack count. The
// budget is charged one operation per proposal (|open| per sweep), and a
// finished run adds its proposals to the scratch. Everything the run
// computes is a pure function of (g, cfg, seed); the scratch only supplies
// reusable memory.
func simulateRun(ctx context.Context, g *bipartite.Graph, cfg Config, seed int64, sc *runScratch) (float64, error) {
	bud := sc.bud
	if err := bud.Check(); err != nil {
		return 0, err
	}
	s := &sc.s
	if err := s.Reset(ctx, g, seed); err != nil {
		return 0, err
	}
	sweepCost := int64(len(s.open))
	s.PaperMoves = cfg.PaperMoves
	for i := 0; i < cfg.SeedSweeps; i++ {
		if err := bud.Charge(sweepCost); err != nil {
			return 0, fmt.Errorf("matching: burn-in: %w", err)
		}
		s.Step()
	}
	total := 0
	for k := 0; k < cfg.Samples; k++ {
		if err := bud.Charge(sweepCost); err != nil {
			return 0, fmt.Errorf("matching: sampling: %w", err)
		}
		s.Step()
		total += s.Cracks()
	}
	sc.proposals += int64(cfg.SeedSweeps+cfg.Samples) * sweepCost
	return float64(total) / float64(cfg.Samples), nil
}
