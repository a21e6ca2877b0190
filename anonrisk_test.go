package anonrisk

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/belief"
	"repro/internal/dataset"
)

// bigMartDB reconstructs the paper's Figure 1 example.
func bigMartDB(t testing.TB) *Database {
	t.Helper()
	db, err := NewDatabase(6, []Transaction{
		{0, 1, 2}, {0, 1, 2}, {0, 1, 3}, {0, 1, 3}, {0, 3, 5},
		{2, 3, 5}, {2, 4, 5}, {2, 5}, {4, 5}, {3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFIMIRoundTripFacade(t *testing.T) {
	db := bigMartDB(t)
	var buf bytes.Buffer
	if err := WriteFIMI(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFIMI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Transactions() != db.Transactions() {
		t.Errorf("round trip lost transactions")
	}
	if _, err := ReadFIMI(strings.NewReader("not numbers")); err == nil {
		t.Error("garbage input: want error")
	}
}

func TestAnonymizePreservesMining(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := bigMartDB(t)
	release, key, err := Anonymize(db, rng)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := MineFrequentItemsets(db, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := MineFrequentItemsets(release, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != len(anon) {
		t.Fatalf("mining changed under anonymization: %d vs %d itemsets", len(orig), len(anon))
	}
	anonKeys := map[string]int{}
	for _, fs := range anon {
		anonKeys[fs.Items.Key()] = fs.Support
	}
	for _, fs := range orig {
		img := fs.Items.Map(key.ToAnon)
		if anonKeys[img.Key()] != fs.Support {
			t.Errorf("itemset %v: support %d, image has %d", fs.Items, fs.Support, anonKeys[img.Key()])
		}
	}
}

func TestExpectedCracksHelpers(t *testing.T) {
	db := bigMartDB(t)
	if got := ExpectedCracksIgnorant(db.Items()); got != 1 {
		t.Errorf("Lemma 1 helper = %v", got)
	}
	if got := ExpectedCracksExactKnowledge(db); got != 3 {
		t.Errorf("Lemma 3 helper = %v, want 3 (BigMart groups .3/.4/.5)", got)
	}
}

func TestBeliefHelpers(t *testing.T) {
	db := bigMartDB(t)
	freqs := db.Frequencies()
	if !Ignorant(6).IsIgnorant() {
		t.Error("Ignorant helper broken")
	}
	if !ExactKnowledge(db).IsPointValued() {
		t.Error("ExactKnowledge should be point-valued")
	}
	bp := BallparkKnowledge(db, 0.05)
	if !bp.IsCompliant(freqs) {
		t.Error("BallparkKnowledge must be compliant")
	}
	auto := BallparkKnowledge(db, 0)
	if !auto.IsCompliant(freqs) {
		t.Error("δ_med BallparkKnowledge must be compliant")
	}
	g, err := ConsistencyGraph(bp, db)
	if err != nil {
		t.Fatal(err)
	}
	if g.Items() != 6 {
		t.Errorf("graph over %d items", g.Items())
	}
}

func TestBeliefFromSample(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := bigMartDB(t)
	bf := BeliefFromSample(db) // "sample" = whole database: fully compliant
	if a := bf.Alpha(db.Frequencies()); a != 1 {
		t.Errorf("full-sample belief alpha = %v, want 1", a)
	}
	_ = rng
}

func TestAttackEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := bigMartDB(t)

	// Ignorant hacker: OE = 1.
	rep, err := AttackTableCtx(context.Background(), Ignorant(6), db.Table(), AttackOptions{Simulate: true, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.OEstimate-1) > 1e-9 {
		t.Errorf("ignorant OE = %v, want 1", rep.OEstimate)
	}
	if math.Abs(rep.Simulated-1) > 0.2 {
		t.Errorf("ignorant simulated = %v, want ~1", rep.Simulated)
	}

	// Omniscient hacker: OE = g = 3, with the two singleton groups forced.
	rep, err = AttackTableCtx(context.Background(), ExactKnowledge(db), db.Table(), AttackOptions{Simulate: true, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.OEstimate-3) > 1e-9 {
		t.Errorf("exact-knowledge OE = %v, want 3", rep.OEstimate)
	}
	if rep.ForcedCracks != 2 {
		t.Errorf("ForcedCracks = %d, want 2 (items with unique frequencies)", rep.ForcedCracks)
	}
	if f := rep.OEstimateFraction(); math.Abs(f-0.5) > 1e-9 {
		t.Errorf("fraction = %v, want 0.5", f)
	}
}

func TestAttackInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := bigMartDB(t)
	// All intervals miss every observed frequency.
	ivs := make([]Interval, 6)
	for i := range ivs {
		ivs[i] = Interval{Lo: 0.9, Hi: 0.95}
	}
	bf, err := NewBelief(ivs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AttackTableCtx(context.Background(), bf, db.Table(), AttackOptions{Simulate: true, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Infeasible {
		t.Error("want infeasible attack report")
	}
	// §5.3 per-item fallback: no item is compliant, so OE = Σ 1/O_x over the
	// empty set.
	if rep.OEstimate != 0 {
		t.Errorf("fully non-compliant OE = %v, want 0", rep.OEstimate)
	}
	// Simulation is skipped for infeasible graphs.
	if rep.Simulated != 0 || rep.SimulatedStdDev != 0 {
		t.Errorf("infeasible report must skip simulation, got %v ± %v", rep.Simulated, rep.SimulatedStdDev)
	}
}

func TestAttackInfeasiblePartialCompliance(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	db := bigMartDB(t)
	// The two singleton-frequency items (1 and 4) guess wrong, destroying
	// every global matching; the four 0.5-group items stay compliant.
	ivs := []Interval{
		{Lo: 0.5, Hi: 0.5}, {Lo: 0.9, Hi: 0.95}, {Lo: 0.5, Hi: 0.5},
		{Lo: 0.5, Hi: 0.5}, {Lo: 0.9, Hi: 0.95}, {Lo: 0.5, Hi: 0.5},
	}
	bf, err := NewBelief(ivs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AttackTableCtx(context.Background(), bf, db.Table(), AttackOptions{Simulate: true, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Infeasible {
		t.Fatal("want infeasible attack report")
	}
	// §5.3: the four compliant items each keep outdegree 4 -> OE = 4·(1/4).
	if math.Abs(rep.OEstimate-1) > 1e-9 {
		t.Errorf("per-item fallback OE = %v, want 1", rep.OEstimate)
	}
	if rep.Expected != rep.OEstimate || rep.Method != MethodOEstimate {
		t.Errorf("infeasible report: Expected %v Method %q, want the §5.3 O-estimate", rep.Expected, rep.Method)
	}
}

func TestAssessRiskFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// A flat database (single frequency group) discloses immediately.
	var txs []Transaction
	for i := 0; i < 20; i++ {
		txs = append(txs, Transaction{0, 1, 2, 3, 4})
	}
	db, err := NewDatabase(5, txs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := AssessRiskCtx(ctx, db, AssessOptions{Tolerance: 0.3, Propagate: true, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Disclose {
		t.Errorf("flat database should disclose: %+v", res)
	}
	// Options pass through: without propagation the verdict agrees.
	res2, err := AssessRiskCtx(ctx, db, AssessOptions{Tolerance: 0.3, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Disclose {
		t.Error("options path should agree")
	}
}

func TestComputeStatsFacade(t *testing.T) {
	s := ComputeStats("bigmart", bigMartDB(t))
	if s.NItems != 6 || s.NGroups != 3 || s.Singleton != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestAttackSubset(t *testing.T) {
	ctx := context.Background()
	db := bigMartDB(t)
	// Interested only in the two uniquely-frequent items (ids 1 and 4).
	interest := []bool{false, true, false, false, true, false}
	rep, err := AttackSubsetCtx(ctx, ExactKnowledge(db), db, interest)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.OEstimate-2) > 1e-9 {
		t.Errorf("subset OE = %v, want 2 (both singletons cracked)", rep.OEstimate)
	}
	// Full interest reduces to the whole-domain O-estimate.
	full, err := AttackSubsetCtx(ctx, ExactKnowledge(db), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.OEstimate-3) > 1e-9 {
		t.Errorf("nil interest OE = %v, want 3", full.OEstimate)
	}
}

// TestAttackForcedCracksAreCracks pins ForcedCracks to the forced pairs that
// are cracks. Forced cracks are certain, so they never exceed the expected
// crack count, nor the O-estimate that counts each of them as 1.
func TestAttackForcedCracksAreCracks(t *testing.T) {
	ctx := context.Background()
	// Counts {1, 5, 8, 8} over 10 transactions. Items 0 and 1 believe each
	// other's frequency, so propagation forces each onto the other's
	// anonymized twin: two forced edges, no crack. Items 2 and 3 share one
	// group and crack once in expectation.
	ft, err := dataset.NewTable(10, []int{1, 5, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := NewBelief([]Interval{{Lo: 0.5, Hi: 0.5}, {Lo: 0.1, Hi: 0.1}, {Lo: 0.8, Hi: 0.8}, {Lo: 0.8, Hi: 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AttackTableCtx(ctx, bf, ft, AttackOptions{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != MethodExact || math.Abs(rep.Expected-1) > 1e-9 {
		t.Fatalf("exact tier: Expected %v by %q, want 1 by %q", rep.Expected, rep.Method, MethodExact)
	}
	if rep.ForcedCracks != 0 {
		t.Errorf("ForcedCracks = %d, want 0: both forced pairs swap items 0 and 1", rep.ForcedCracks)
	}

	// A subset counts only its own forced cracks: of BigMart's two
	// singleton items, only item 1 is of interest.
	db := bigMartDB(t)
	sub, err := AttackSubsetCtx(ctx, ExactKnowledge(db), db, []bool{false, true, false, false, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ForcedCracks != 1 || math.Abs(sub.OEstimate-1) > 1e-9 {
		t.Errorf("subset: ForcedCracks %d, OE %v; want 1 and 1", sub.ForcedCracks, sub.OEstimate)
	}

	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		n, m := 4+rng.Intn(20), 30
		txs := make([]Transaction, m)
		for i := range txs {
			txs[i] = Transaction{dataset.Item(rng.Intn(n))}
			for x := 0; x < n; x++ {
				if rng.Intn(3) == 0 {
					txs[i] = append(txs[i], dataset.Item(x))
				}
			}
		}
		db, err := NewDatabase(n, txs)
		if err != nil {
			t.Fatal(err)
		}
		freqs := db.Table().Frequencies()
		base := belief.UniformWidth(freqs, 0.02+0.1*rng.Float64())
		bf, _, err := belief.AlphaCompliant(base, freqs, rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		interest := make([]bool, n)
		for x := range interest {
			interest[x] = rng.Intn(2) == 0
		}
		full, err := AttackTableCtx(ctx, bf, db.Table(), AttackOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := AttackSubsetCtx(ctx, bf, db, interest)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []AttackReport{full, sub} {
			if float64(r.ForcedCracks) > r.OEstimate+1e-9 {
				t.Errorf("trial %d: ForcedCracks %d exceeds the O-estimate %v", trial, r.ForcedCracks, r.OEstimate)
			}
		}
	}
}

func TestCrackDistributionFacade(t *testing.T) {
	db := bigMartDB(t)
	dist, err := CrackDistributionCtx(context.Background(), ExactKnowledge(db), db)
	if err != nil {
		t.Fatal(err)
	}
	// Two singletons always cracked; the 4-group contributes derangement
	// statistics. Expectation must be 3 (Lemma 3).
	exp, sum := 0.0, 0.0
	for k, p := range dist {
		exp += float64(k) * p
		sum += p
	}
	if math.Abs(exp-3) > 1e-9 {
		t.Errorf("E from distribution = %v, want 3", exp)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %v", sum)
	}
	if dist[0] != 0 || dist[1] != 0 {
		t.Errorf("fewer than 2 cracks should be impossible: P(0)=%v P(1)=%v", dist[0], dist[1])
	}
}

func TestFacadeErrorPaths(t *testing.T) {
	ctx := context.Background()
	db := bigMartDB(t)
	// Belief over the wrong domain size propagates an error everywhere.
	wrong := Ignorant(3)
	if _, err := AttackTableCtx(ctx, wrong, db.Table(), AttackOptions{}); err == nil {
		t.Error("AttackTableCtx with mismatched belief: want error")
	}
	if _, err := AttackSubsetCtx(ctx, wrong, db, nil); err == nil {
		t.Error("AttackSubsetCtx with mismatched belief: want error")
	}
	if _, err := AttackSubsetCtx(ctx, Ignorant(6), db, []bool{true}); err == nil {
		t.Error("AttackSubsetCtx with short interest: want error")
	}
	if _, err := CrackDistributionCtx(ctx, wrong, db); err == nil {
		t.Error("CrackDistributionCtx with mismatched belief: want error")
	}
	if _, err := MineFrequentItemsets(db, 0); err == nil {
		t.Error("MineFrequentItemsets with support 0: want error")
	}
	if _, err := MineFrequentItemsets(db, 2); err == nil {
		t.Error("MineFrequentItemsets with support > 1: want error")
	}
}

func TestAttackSubsetInfeasibleFallback(t *testing.T) {
	db := bigMartDB(t)
	// Items 1 and 4 (the singleton groups) guess a frequency no item has:
	// their own groups lose all candidates -> no global matching.
	ivs := []Interval{
		{Lo: 0.5, Hi: 0.5}, {Lo: 0.9, Hi: 0.95}, {Lo: 0.5, Hi: 0.5},
		{Lo: 0.5, Hi: 0.5}, {Lo: 0.9, Hi: 0.95}, {Lo: 0.5, Hi: 0.5},
	}
	bf, err := NewBelief(ivs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AttackSubsetCtx(context.Background(), bf, db, []bool{true, true, true, true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Infeasible {
		t.Error("want infeasible fallback")
	}
	// Per-item §5.3 estimate over the compliant 0.5-group items: 4 × 1/4.
	if math.Abs(rep.OEstimate-1) > 1e-9 {
		t.Errorf("fallback OE = %v, want 1", rep.OEstimate)
	}
}
