// Package matching samples consistent crack mappings — perfect matchings of
// the bipartite consistency graph — uniformly at random, reproducing the
// simulation procedure of Section 7.1 of the SIGMOD 2005 paper. The sampled
// crack counts provide the "average simulated estimates" that Figures 10 and
// 11 compare the O-estimates against.
//
// The proposal loop is the hottest kernel in the repo and is written as a
// flat-array kernel (DESIGN.md §11): candidate draws are one bounded-rand
// draw plus one load into the graph's flat candidate layout, the crack count
// is maintained incrementally inside swap, randomness comes from an inlined
// SplitMix64 stream (parallel.Stream), and all per-run state lives in
// reusable scratch so steady-state sampling allocates nothing.
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
// re-seeding after 250 samples until 5,000 samples are drawn. Those counts
// are far larger than needed for the domain sizes involved; the defaults here
// keep the identical shape at a fraction of the cost and are validated
// against exact permanent-based expectations in the package tests.
type Config struct {
	SeedSweeps     int  // burn-in sweeps after (re-)seeding; default 50
	SampleGap      int  // sweeps between consecutive samples; default 5
	SamplesPerSeed int  // samples drawn per seed before re-seeding; default 250
	Samples        int  // total samples per run; default 1000
	Runs           int  // independent runs averaged; default 5 (as in the paper)
	PaperMoves     bool // use the paper's blind transpositions instead of targeted swaps
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.SeedSweeps <= 0 {
		c.SeedSweeps = 50
	}
	if c.SampleGap <= 0 {
		c.SampleGap = 5
	}
	if c.SamplesPerSeed <= 0 {
		c.SamplesPerSeed = 250
	}
	if c.Samples <= 0 {
		c.Samples = 1000
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
//     items and, for each item i, swap the anonymized items matched to i and
//     P(i) when both swapped edges remain consistent.
//   - TargetedSweep: for each of n proposals, pick a random item i and a
//     uniform anonymized item w inside i's belief range, and swap i with w's
//     current owner when the displaced edge stays consistent. Choosing from
//     the (state-independent) candidate set makes the transition kernel
//     P(M→M') = (1/n)(1/O_i + 1/O_j), symmetric in M and M', while rejecting
//     far fewer proposals than blind transpositions — crucial for narrow
//     intervals over large domains (RETAIL-scale), where the paper
//     compensated with 100,000-iteration seeds instead.
//
// A Sampler is reusable: Reset rebinds it to a graph and a deterministic
// seed without allocating when the domain size does not grow, which is what
// makes the R-run estimate allocation-free after setup (see runScratch).
type Sampler struct {
	// PaperMoves makes Step use the paper's blind transpositions; the
	// default is targeted swaps.
	PaperMoves bool

	g *bipartite.Graph

	// Slice headers captured from the graph at bind time so the proposal
	// loops index flat arrays directly instead of chasing through g.
	flat     []int // group-ordered candidate array (g.CandidateLayout)
	candBase []int // item x's candidates start at flat[candBase[x]]
	candSpan []int // ... and number candSpan[x] (= outdegree O_x)
	itemLo   []int // first consistent group per item
	itemHi   []int // last consistent group per item (inclusive)
	itemGrp  []int // true group of each anonymized item

	anonOf []int              // anonOf[x] = anonymized item currently matched to item x
	itemOf []int              // itemOf[w] = item currently holding anonymized item w
	perm   []int              // scratch permutation for Sweep
	batch  [sweepBatch]uint64 // word buffer for TargetedSweep: raw draws, then packed proposals

	seedMatch    []int // base matching reseeds start from
	identitySeed bool  // seedMatch is the identity: shuffle within groups

	cracks int // incrementally maintained |{x : anonOf[x] == x}|

	rng parallel.Stream
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
// installs a fresh seed matching. No memory is allocated when the sampler
// was previously bound to a graph of at least the same domain size; the
// per-worker scratch of EstimateCracksCtx relies on this to run every chain
// allocation-free after the first. It returns bipartite.ErrInfeasible when
// the graph admits no consistent matching, and an error for domains of 2^31
// or more items, past the 32-bit draws of TargetedSweep.
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

// bind captures g's flat layout and establishes the base seed matching: the
// identity when the graph is compliant, a greedy perfect matching otherwise
// (both deterministic, so they are computed once and reused by reseed).
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
	s.g = g
	s.flat, s.candBase, s.candSpan = g.CandidateLayout()
	s.itemLo, s.itemHi, s.itemGrp = g.ItemLo, g.ItemHi, g.ItemGroup
	s.seedMatch = match
	s.identitySeed = identity
	s.anonOf = scratchInts(s.anonOf, n)
	s.itemOf = scratchInts(s.itemOf, n)
	s.perm = scratchInts(s.perm, n)
	return nil
}

// scratchInts returns a length-n int slice, reusing buf's storage when it is
// large enough.
func scratchInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// reseed installs a fresh consistent matching: a within-group shuffle of the
// identity when the graph is compliant (already far closer to stationarity
// than the raw identity — its expected crack count is the number of groups,
// not n), or the cached greedy perfect matching otherwise. It also rebuilds
// the inverse index and recounts cracks — the one O(n) scan per seed; every
// proposal afterwards updates the count incrementally.
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
	cracks := 0
	for x, w := range s.anonOf {
		s.itemOf[w] = x
		if w == x {
			cracks++
		}
	}
	s.cracks = cracks
}

// Sweep performs one permutation sweep of transposition moves and reports how
// many were accepted.
func (s *Sampler) Sweep() int {
	n := len(s.anonOf)
	perm := s.perm
	for i := range perm {
		perm[i] = i
	}
	s.rng.Shuffle(perm)
	anonOf := s.anonOf
	itemLo, itemHi, itemGrp := s.itemLo, s.itemHi, s.itemGrp
	accepted := 0
	for i := 0; i < n; i++ {
		j := perm[i]
		if i == j {
			continue
		}
		wi, wj := anonOf[i], anonOf[j]
		// HasEdge(wj, i) && HasEdge(wi, j), inlined on the captured arrays.
		gj, gi := itemGrp[wj], itemGrp[wi]
		if itemLo[i] <= gj && gj <= itemHi[i] && itemLo[j] <= gi && gi <= itemHi[j] {
			s.swap(i, j)
			accepted++
		}
	}
	return accepted
}

// swap exchanges the anonymized items of items i and j (assumed consistent)
// and keeps the crack count current: only positions i and j change, so the
// count moves by the ±1 contributions of those two positions.
func (s *Sampler) swap(i, j int) {
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

// sweepBatch is the number of proposals TargetedSweep resolves per refill of
// its word buffer, chosen from a BenchmarkTargetedSweep sweep over
// K ∈ {16, 32, 64, 128, 256} (DESIGN.md §16.3).
const sweepBatch = 64

// TargetedSweep performs n targeted-swap proposals and reports how many were
// accepted. See the Sampler documentation for the kernel and its symmetry.
// Proposals run in batches of sweepBatch (proposeBatch); the item draw's
// rejection threshold (-n mod n) is computed once per sweep.
func (s *Sampler) TargetedSweep() int {
	n := len(s.anonOf)
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
//   - ONE 64-bit stream touch per proposal — the high half picks the item,
//     the low half picks the candidate, each by Lemire's 32-bit
//     multiply-shift (exact for n < 2^31, which bind enforces and even RETAIL
//     clears by five orders of magnitude);
//   - the stream state lives in a stack variable across the batch — no
//     pointer round-trip through the Sampler per draw — and is written back
//     once at the end of the draws.
func (s *Sampler) proposeBatch(buf []uint64, itemThresh uint32) int {
	anonOf, itemOf := s.anonOf, s.itemOf
	flat, candBase, candSpan := s.flat, s.candBase, s.candSpan
	itemLo, itemHi, itemGrp := s.itemLo, s.itemHi, s.itemGrp
	un := uint64(len(anonOf))
	state := s.rng
	for idx := range buf {
		buf[idx] = state.Uint64()
	}
	// Phase 1: resolve every slot's (item, candidate) pair, packed back into
	// the word buffer in place as item<<32 | candidate (all-ones marks an
	// isolated item with no candidates). The pairs depend only on the stream
	// words and the graph's static layout — not on the evolving matching —
	// so the iterations are independent and the multiplies and candidate
	// loads pipeline across slots, instead of queueing behind the previous
	// proposal's swap.
	//lint:allow loopbudget one pass over a sweepBatch-sized buffer; simulateRun charges per sweep
	for idx, word := range buf {
		// Item from the high half: one 32×32→64 multiply against the
		// hoisted threshold.
		m := (word >> 32) * un
		for uint32(m) < itemThresh {
			m = (state.Uint64() >> 32) * un
		}
		i := int(m >> 32)
		span := candSpan[i]
		if span == 0 {
			buf[idx] = ^uint64(0) // isolated item: no proposal
			continue
		}
		// Candidate from the low half: span varies per item, so the fringe
		// test stays lazy as in Stream.Uintn.
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
	// Phase 2: apply the proposals in slot order against the live matching.
	// Acceptance is branchless: a rejected proposal becomes the no-op
	// transposition (i, i) by conditional move, and the swap body runs
	// unconditionally with a flag-set crack delta — near stationarity the
	// accept/reject outcomes are data-dependent coin flips, exactly the
	// branches a predictor cannot learn. A proposal whose candidate is the
	// item's current partner is the identity move and counts as (trivially)
	// accepted.
	cracks, accepted := s.cracks, 0
	for _, pair := range buf {
		if pair == ^uint64(0) {
			continue
		}
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
// whose matched anonymized item is their own twin — in O(1): the count is
// maintained incrementally by swap and recomputed only on reseed.
func (s *Sampler) Cracks() int { return s.cracks }

// Matching returns a copy of the current matching (item -> anonymized item).
func (s *Sampler) Matching() []int {
	return append([]int(nil), s.anonOf...)
}

// Step performs one sweep of the configured move kind.
func (s *Sampler) Step() int {
	if s.PaperMoves {
		return s.Sweep()
	}
	return s.TargetedSweep()
}

// Reseed resets the state to a fresh seed matching and burns in the given
// number of sweeps. The random stream continues — it is not rewound — so
// successive reseeds of one sampler explore distinct seed states.
func (s *Sampler) Reseed(burnIn int) error {
	s.reseed()
	for i := 0; i < burnIn; i++ {
		s.Step()
	}
	return nil
}

// Estimate is a simulation estimate of the expected number of cracks.
type Estimate struct {
	Mean     float64   // mean over runs of the per-run average crack count
	StdDev   float64   // sample standard deviation across runs
	RunMeans []float64 // per-run averages
	Samples  int       // samples per run
}

// Fraction returns the estimate as a fraction of the domain size n.
func (e *Estimate) Fraction(n int) float64 { return e.Mean / float64(n) }

// runScratch is one pool worker's reusable state: a rebindable sampler and
// the worker's batching view of the shared budget. A scratch is owned by
// exactly one ForEachWorker index, so chains reuse its memory run after run
// — after the first run on a worker, a steady-state iteration performs no
// allocations (enforced by TestSimulateRunSteadyStateAllocs).
type runScratch struct {
	s   Sampler
	bud *budget.Worker
}

// EstimateCracksCtx runs the full simulation of Section 7.1: cfg.Runs
// independent runs, each drawing cfg.Samples crack counts from the matching
// space, and returns the across-run mean and standard deviation. Results are
// bit-identical for a given rng regardless of the worker count, because each
// run's random stream is seeded from a single root (parallel.SplitSeed) and
// run means are reduced in run order.
//
// Every run charges one operation per move proposal, so a deadline or
// operation limit aborts the chains between sweeps instead of hanging. The
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
	est.Mean = dataset.Mean(est.RunMeans)
	est.StdDev = dataset.StdDev(est.RunMeans)
	return est, nil
}

// simulateRun executes one independent simulation run on the worker's
// scratch, charging the budget one operation per proposal (n per sweep).
// Everything the run computes is a pure function of (g, cfg, seed); the
// scratch only supplies reusable memory.
func simulateRun(ctx context.Context, g *bipartite.Graph, cfg Config, seed int64, sc *runScratch) (float64, error) {
	bud := sc.bud
	if err := bud.Check(); err != nil {
		return 0, err
	}
	sweepCost := int64(g.Items())
	s := &sc.s
	if err := s.Reset(ctx, g, seed); err != nil {
		return 0, err
	}
	s.PaperMoves = cfg.PaperMoves
	reseed := func() error {
		s.reseed()
		for i := 0; i < cfg.SeedSweeps; i++ {
			if err := bud.Charge(sweepCost); err != nil {
				return fmt.Errorf("matching: burn-in: %w", err)
			}
			s.Step()
		}
		return nil
	}
	if err := reseed(); err != nil {
		return 0, err
	}
	total := 0.0
	sinceSeed := 0
	for k := 0; k < cfg.Samples; k++ {
		if sinceSeed == cfg.SamplesPerSeed {
			if err := reseed(); err != nil {
				return 0, err
			}
			sinceSeed = 0
		}
		for sw := 0; sw < cfg.SampleGap; sw++ {
			if err := bud.Charge(sweepCost); err != nil {
				return 0, fmt.Errorf("matching: sampling: %w", err)
			}
			s.Step()
		}
		total += float64(s.Cracks())
		sinceSeed++
	}
	return total / float64(cfg.Samples), nil
}

// ExpectedCracksEnumerated computes the exact expected crack count of a small
// explicit graph by exhaustive enumeration — ground truth for sampler tests.
func ExpectedCracksEnumerated(ctx context.Context, e *bipartite.Explicit) (float64, error) {
	total, sum := 0, 0
	err := e.EnumeratePerfectMatchingsCtx(ctx, 0, func(match []int) {
		total++
		for w, x := range match {
			if w == x {
				sum++
			}
		}
	})
	if err != nil {
		return 0, err
	}
	if total == 0 {
		return 0, fmt.Errorf("matching: %w", bipartite.ErrInfeasible)
	}
	return float64(sum) / float64(total), nil
}
