package anonrisk

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/budget"
)

// singleGroupDB builds a database whose n items all share frequency 1 — one
// frequency group, so exact knowledge induces the complete bipartite graph
// K_n. Expected cracks of a uniform perfect matching on K_n is exactly 1
// (Lemma 1 / the derangement limit), which every cascade tier must agree on.
func singleGroupDB(t testing.TB, n int) *Database {
	t.Helper()
	all := make(Transaction, n)
	for i := range all {
		all[i] = int32(i)
	}
	db, err := NewDatabase(n, []Transaction{all, all, all})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestAttackCtxDegradesToOEstimate is the headline acceptance scenario: a
// domain large enough that exact counting blows a 50ms budget must yield the
// O-estimate answer — not an error, not a hang — with provenance recorded.
func TestAttackCtxDegradesToOEstimate(t *testing.T) {
	db := singleGroupDB(t, 22) // exact tier alone needs tens of seconds
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	rep, err := AttackTableCtx(ctx, ExactKnowledge(db), db.Table(), AttackOptions{
		Exact: true,
		Rng:   rand.New(rand.NewSource(1)),
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cascade must degrade, not fail: %v", err)
	}
	if !rep.Degraded {
		t.Error("want Degraded set after the exact tier ran out of budget")
	}
	if rep.Method != MethodOEstimate {
		t.Errorf("Method = %q, want %q (both expensive tiers exhausted)", rep.Method, MethodOEstimate)
	}
	// O-estimate on the single-group complete graph: 22 × 1/22 = 1.
	if math.Abs(rep.Expected-1) > 1e-9 {
		t.Errorf("Expected = %v, want 1", rep.Expected)
	}
	if rep.DegradedReason == "" {
		t.Error("want a DegradedReason explaining what was abandoned")
	}
	// The 50ms deadline plus prompt budget polls bound the whole call; 5s is
	// generous slack for race-enabled CI. Without budgets this takes minutes.
	if elapsed > 5*time.Second {
		t.Errorf("degradation took %v, want prompt abort", elapsed)
	}
}

// TestAttackCtxDegradesToSampled exercises the middle tier: an operation
// limit that the exact permanent DP exceeds but a small MCMC run fits.
func TestAttackCtxDegradesToSampled(t *testing.T) {
	db := singleGroupDB(t, 22)
	// 200k ops: the exact tier's 2^22-state DP exceeds it almost at once; the
	// sampler below needs ~(5+40)·22 ≈ 1k ops per run.
	ctx := budget.WithMaxOps(context.Background(), 200_000)

	rep, err := AttackTableCtx(ctx, ExactKnowledge(db), db.Table(), AttackOptions{
		Exact: true,
		Sampler: SamplerConfig{
			Runs: 2, Samples: 40, SeedSweeps: 5,
		},
		Rng: rand.New(rand.NewSource(2)),
	})
	if err != nil {
		t.Fatalf("cascade must degrade, not fail: %v", err)
	}
	if !rep.Degraded {
		t.Error("want Degraded set after the exact tier hit its op limit")
	}
	if rep.Method != MethodSampled {
		t.Errorf("Method = %q, want %q", rep.Method, MethodSampled)
	}
	// Uniform matching on K_22 has E(X) = 1; 80 correlated MCMC samples land
	// well within this slack.
	if math.Abs(rep.Expected-1) > 0.75 {
		t.Errorf("sampled Expected = %v, want ≈1", rep.Expected)
	}
	if rep.Simulated != rep.Expected {
		t.Errorf("Simulated %v should carry the sampled mean %v", rep.Simulated, rep.Expected)
	}
}

// TestAttackCtxExactWithinBudget: with no budget pressure the preferred tier
// wins and nothing is marked degraded.
func TestAttackCtxExactWithinBudget(t *testing.T) {
	db := bigMartDB(t) // 6 items: exact is instant
	rep, err := AttackTableCtx(context.Background(), ExactKnowledge(db), db.Table(), AttackOptions{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != MethodExact || rep.Degraded {
		t.Errorf("Method = %q Degraded = %v, want exact/undegraded", rep.Method, rep.Degraded)
	}
	// Lemma 3: expected cracks = number of frequency groups = 3.
	if math.Abs(rep.Expected-3) > 1e-9 {
		t.Errorf("exact Expected = %v, want 3", rep.Expected)
	}
}

// TestCanceledContextAborts: explicit cancellation is a hard abort — no
// degradation, a typed error, and a return within one CheckEvery window.
func TestCanceledContextAborts(t *testing.T) {
	e := bipartite.Complete(22) // ~3s of DP when allowed to finish

	// Pre-canceled: the upfront check fires before any DP state is visited.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := e.CountPerfectMatchingsCtx(ctx)
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if budget.Degradable(err) {
		t.Error("cancellation must not be degradable")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("pre-canceled count took %v", d)
	}

	// Mid-flight: cancel while the DP is running; the next CheckEvery poll
	// (every 1024 charged states) must notice.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel2()
	}()
	start = time.Now()
	_, err = e.CountPerfectMatchingsCtx(ctx2)
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("mid-flight err = %v, want ErrCanceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("mid-flight cancel took %v, want abort within one poll window", d)
	}
}

// TestAttackCtxCanceled: cancellation reaches through the facade too — the
// cascade must not "degrade around" an explicit abort.
func TestAttackCtxCanceled(t *testing.T) {
	db := singleGroupDB(t, 22)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AttackTableCtx(ctx, ExactKnowledge(db), db.Table(), AttackOptions{Exact: true})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestAssessRiskCtxDegrades: the α binary search returns its proven lower
// bound when the op budget dies mid-search, with the verdict taken
// conservatively.
func TestAssessRiskCtxDegrades(t *testing.T) {
	db := bigMartDB(t)
	// One op: the search-level budget (CheckEvery 1) dies on its first
	// charge; the cheap O(n) stages never accumulate enough to poll.
	ctx := budget.WithMaxOps(context.Background(), 1)
	res, err := AssessRiskCtx(ctx, db, AssessOptions{Tolerance: 0.1, Propagate: true, Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatalf("assess must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatalf("want Degraded result, got %+v", res)
	}
	if res.AlphaMax != 0 {
		t.Errorf("AlphaMax = %v, want the conservative 0 lower bound", res.AlphaMax)
	}
	if res.Disclose {
		t.Error("degraded lower bound 0 must not disclose")
	}
	// Sanity: without the limit the same search completes undegraded.
	full, err := AssessRiskCtx(context.Background(), db, AssessOptions{Tolerance: 0.1, Propagate: true, Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if full.Degraded {
		t.Error("unbudgeted assess must not degrade")
	}
	if full.AlphaMax < res.AlphaMax {
		t.Errorf("full AlphaMax %v < degraded bound %v", full.AlphaMax, res.AlphaMax)
	}
}

// TestCrackDistributionCtxBudget: the enumeration path has no cheaper
// fallback; it must surface a typed budget error instead.
func TestCrackDistributionCtxBudget(t *testing.T) {
	db := singleGroupDB(t, 12) // 12! ≈ 4.8e8 matchings: far beyond the limit
	ctx := budget.WithMaxOps(context.Background(), 10_000)
	_, err := CrackDistributionCtx(ctx, ExactKnowledge(db), db)
	if !budget.IsBudgetError(err) {
		t.Fatalf("err = %v, want a typed budget error", err)
	}
	if budget.ExitCode(err) != budget.ExitCodeBudget {
		t.Errorf("ExitCode = %d, want %d", budget.ExitCode(err), budget.ExitCodeBudget)
	}
}
