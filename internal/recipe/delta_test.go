package recipe

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

func randomSessionTable(rng *rand.Rand) *dataset.FrequencyTable {
	n := 3 + rng.Intn(12)
	m := 6 + rng.Intn(30)
	counts := make([]int, n)
	for x := range counts {
		counts[x] = rng.Intn(m + 1)
	}
	ft, err := dataset.NewTable(m, counts)
	if err != nil {
		panic(err)
	}
	return ft
}

func randomSessionDiff(rng *rand.Rand, ft *dataset.FrequencyTable) *dataset.CountsDiff {
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

// stripVolatile zeroes the provenance fields that legitimately differ
// between two runs of the same assessment (wall/CPU time); everything else
// must match bit-for-bit.
func stripVolatile(r *Result) Result {
	c := *r
	c.Wall, c.CPU = 0, 0
	return c
}

// TestDeltaSessionMatchesFullAssess is the end-to-end delta-equivalence
// property: across ≥200 random (table, diff-chain) pairs, the session path —
// ApplyDiff on the session's own table, then the recipe on it — produces a
// Result byte-identical (every float compared with ==, no tolerance) to
// AssessRiskCtx on a freshly built table with the same counts, options, and
// seed, and the session's digest equals the rebuilt table's digest. On about half the steps both paths run under
// the same budget.WithMaxOps limit, drawn from a second rng so the tables
// and diffs stay those of the unlimited trials: they must then fail with the
// same error or agree on the (possibly degraded) Result. Run at one worker
// and at GOMAXPROCS so the parallel α sweep is covered at both extremes.
func TestDeltaSessionMatchesFullAssess(t *testing.T) {
	workerCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workerCounts = append(workerCounts, p)
	} else {
		workerCounts = append(workerCounts, 4)
	}
	for _, workers := range workerCounts {
		ctx := parallel.WithWorkers(context.Background(), workers)
		rng := rand.New(rand.NewSource(71))
		limits := rand.New(rand.NewSource(72))
		for trial := 0; trial < 200; trial++ {
			ft := randomSessionTable(rng)
			seed := rng.Int63()
			opts := Options{
				Tolerance:    0.05 + rng.Float64()*0.4,
				Runs:         1 + rng.Intn(4),
				AlphaComfort: 0.2 + rng.Float64()*0.6,
				Propagate:    rng.Intn(4) == 0,
			}
			sess, err := NewDeltaSessionCtx(ctx, ft, seed, opts)
			if err != nil {
				t.Fatalf("workers=%d trial %d: NewDeltaSessionCtx: %v", workers, trial, err)
			}
			steps := 1 + rng.Intn(3)
			current := ft.Clone()
			for step := 0; step < steps; step++ {
				d := randomSessionDiff(rng, current)
				stepCtx, limited := ctx, limits.Intn(2) == 0
				if limited {
					stepCtx = budget.WithMaxOps(ctx, 1+limits.Int63n(int64(8*opts.Runs*ft.NItems)))
				}
				got, gotErr := sess.ApplyDiffCtx(stepCtx, d)
				if err := current.ApplyDiff(d); err != nil {
					t.Fatalf("workers=%d trial %d step %d: reference ApplyDiff: %v", workers, trial, step, err)
				}
				fresh, err := dataset.NewTable(current.NTransactions, slices.Clone(current.Counts))
				if err != nil {
					t.Fatal(err)
				}
				fopts := opts
				fopts.Rng = rand.New(rand.NewSource(seed))
				want, wantErr := AssessRiskCtx(stepCtx, fresh, fopts)
				if sess.Digest() != fresh.Digest() {
					t.Fatalf("workers=%d trial %d step %d: session digest %s != rebuilt digest %s",
						workers, trial, step, sess.Digest(), fresh.Digest())
				}
				if gotErr != nil || wantErr != nil {
					if !limited || gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
						t.Fatalf("workers=%d trial %d step %d: delta error %v, full error %v",
							workers, trial, step, gotErr, wantErr)
					}
					continue
				}
				if !reflect.DeepEqual(stripVolatile(got), stripVolatile(want)) {
					t.Fatalf("workers=%d trial %d step %d: results diverged\n got %+v\nwant %+v\ndiff %+v",
						workers, trial, step, stripVolatile(got), stripVolatile(want), d)
				}
				if sess.Result() != got {
					t.Fatalf("workers=%d trial %d step %d: Result() does not return the last verdict",
						workers, trial, step)
				}
			}
		}
	}
}

// TestDeltaSessionRejectsInvalidDiffIntact pins that a rejected diff leaves
// the session usable and its verdict unchanged.
func TestDeltaSessionRejectsInvalidDiffIntact(t *testing.T) {
	ctx := context.Background()
	ft, err := dataset.NewTable(10, []int{1, 3, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewDeltaSessionCtx(ctx, ft, 3, Options{Tolerance: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	before, err := sess.AssessCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bad := &dataset.CountsDiff{Items: []int{0}, Deltas: []int{-5}} // drives count negative
	if _, err := sess.ApplyDiffCtx(ctx, bad); err == nil {
		t.Fatal("invalid diff accepted")
	}
	after, err := sess.AssessCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripVolatile(before), stripVolatile(after)) {
		t.Fatal("verdict moved after rejected diff")
	}
}

// TestDeltaSessionHealsAfterBudgetError pins that an assessment aborted by a
// canceled context leaves the session consistent: the next assessment on a
// fresh context matches a full recompute.
func TestDeltaSessionHealsAfterBudgetError(t *testing.T) {
	ctx := context.Background()
	ft, err := dataset.NewTable(20, []int{2, 5, 5, 9, 11, 14, 17, 17, 19, 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Tolerance: 0.1, Runs: 2}
	sess, err := NewDeltaSessionCtx(ctx, ft, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := &dataset.CountsDiff{DTransactions: 1, Items: []int{0, 3}, Deltas: []int{3, -2}}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := sess.ApplyDiffCtx(canceled, d); err == nil {
		t.Fatal("canceled context: want error")
	}
	got, err := sess.AssessCtx(ctx)
	if err != nil {
		t.Fatalf("AssessCtx after cancellation: %v", err)
	}
	applied := ft.Clone()
	if err := applied.ApplyDiff(d); err != nil {
		t.Fatal(err)
	}
	fopts := opts
	fopts.Rng = rand.New(rand.NewSource(5))
	want, err := AssessRiskCtx(ctx, applied, fopts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripVolatile(got), stripVolatile(want)) {
		t.Fatalf("healed session diverged\n got %+v\nwant %+v", stripVolatile(got), stripVolatile(want))
	}
}
