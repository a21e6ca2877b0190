// Package budget bounds the cost of the repo's expensive computations.
//
// The paper's direct method (Section 4.1) is #P-complete, and several other
// paths — matching enumeration, MCMC simulation, the α binary search — can
// run for a long time on adversarial or merely large inputs. A production
// risk assessor must degrade gracefully instead of hanging, so every hot
// entry point accepts a context and charges its work against a Budget:
//
//   - a wall-clock deadline carried by the context (context.WithTimeout),
//   - an optional operation-count limit carried by the context (WithMaxOps),
//   - a CheckEvery interval so the context is polled only once per batch of
//     cheap operations, keeping the overhead negligible on hot loops.
//
// Exhaustion surfaces as a typed error so callers can tell "ran out of
// budget, fall back to a cheaper estimator" (ErrBudgetExceeded, which also
// covers context.DeadlineExceeded) apart from "the caller explicitly gave
// up" (ErrCanceled, from context.Canceled), which aborts the whole cascade.
package budget

import (
	"context"
	"errors"
	"fmt"
)

// ErrBudgetExceeded reports that a computation ran out of its work budget —
// either the operation-count limit or the wall-clock deadline. Callers that
// implement graceful degradation treat it as "try a cheaper method".
var ErrBudgetExceeded = errors.New("work budget exceeded")

// ErrCanceled reports that the caller canceled the context. Unlike
// ErrBudgetExceeded it is not a cue to degrade: the caller wants out.
var ErrCanceled = errors.New("canceled")

// DefaultCheckEvery is the number of charged operations between context
// polls when Config.CheckEvery is zero. Polling a context costs an atomic
// load and a channel check; once per 1024 operations is invisible even on
// loops whose operations are single float additions.
const DefaultCheckEvery = 1024

type maxOpsKey struct{}

// WithMaxOps returns a context carrying a default operation limit for every
// Budget created under it. CLI binaries use it to wire a -max-work flag
// through call chains without widening signatures. The limit bounds each
// budgeted computation individually, not their aggregate.
func WithMaxOps(ctx context.Context, maxOps int64) context.Context {
	if maxOps <= 0 {
		return ctx
	}
	return context.WithValue(ctx, maxOpsKey{}, maxOps)
}

// MaxOps returns the operation limit carried by the context, or 0 when none
// was set.
func MaxOps(ctx context.Context) int64 {
	if v, ok := ctx.Value(maxOpsKey{}).(int64); ok {
		return v
	}
	return 0
}

// Config tunes a Budget. The operation-count limit comes from the
// context (WithMaxOps), unlimited when it carries none.
type Config struct {
	// CheckEvery is the number of charged operations between context polls;
	// 0 means DefaultCheckEvery.
	CheckEvery int64
}

// Budget tracks the work performed by one computation against a wall-clock
// deadline (via its context) and an optional operation-count limit. The zero
// of cost accounting is up to the caller: one "operation" should be one
// iteration of the loop being bounded, whatever that costs.
//
// A nil *Budget is valid and charges nothing, so optional budgeting threads
// through internal helpers without branching. A Budget is not safe for
// concurrent use; parallel workers each derive their own from the shared
// context.
type Budget struct {
	ctx        context.Context
	maxOps     int64
	checkEvery int64
	ops        int64
	pending    int64
	err        error
}

// New creates a Budget charging against ctx, limited by its deadline and
// its WithMaxOps value.
func New(ctx context.Context, cfg Config) *Budget {
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = DefaultCheckEvery
	}
	return &Budget{ctx: ctx, maxOps: MaxOps(ctx), checkEvery: cfg.CheckEvery}
}

// Charge records n operations and, once per CheckEvery charged operations,
// polls the context and the operation limit. The error is sticky: once the
// budget is exhausted every further Charge returns the same error, so hot
// loops need no separate "am I dead" flag.
func (b *Budget) Charge(n int64) error {
	if b == nil {
		return nil
	}
	if b.err != nil {
		return b.err
	}
	b.ops += n
	b.pending += n
	if b.pending < b.checkEvery {
		return nil
	}
	b.pending = 0
	return b.Check()
}

// Check polls the context and the operation limit immediately, regardless of
// the CheckEvery window. Call it before starting a computation so an
// already-expired budget fails before any allocation.
func (b *Budget) Check() error {
	if b == nil {
		return nil
	}
	if b.err != nil {
		return b.err
	}
	if err := b.ctx.Err(); err != nil {
		b.err = WrapContextErr(err)
		return b.err
	}
	if b.maxOps > 0 && b.ops > b.maxOps {
		b.err = fmt.Errorf("%w: %d operations (limit %d)", ErrBudgetExceeded, b.ops, b.maxOps)
		return b.err
	}
	return nil
}

// Ops returns the number of operations charged so far.
func (b *Budget) Ops() int64 {
	if b == nil {
		return 0
	}
	return b.ops
}

// Err returns the sticky exhaustion error, or nil while the budget holds.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	return b.err
}

// WrapContextErr converts a non-nil context error into the package's typed
// errors: DeadlineExceeded becomes ErrBudgetExceeded (the wall-clock budget
// ran out — degrade), Canceled becomes ErrCanceled (the caller gave up —
// abort). Both wrappings keep errors.Is against the original context error
// working.
func WrapContextErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w (%w)", ErrBudgetExceeded, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w (%w)", ErrCanceled, err)
	default:
		return err
	}
}

// Degradable reports whether err means "ran out of budget" — the cue for a
// degradation cascade to fall back to a cheaper method. Explicit
// cancellation is NOT degradable: the caller wants the whole computation
// abandoned.
func Degradable(err error) bool {
	return errors.Is(err, ErrBudgetExceeded)
}

// IsBudgetError reports whether err is either typed budget error.
func IsBudgetError(err error) bool {
	return errors.Is(err, ErrBudgetExceeded) || errors.Is(err, ErrCanceled)
}

// ExitCodeBudget is the process exit status the cmd/ binaries use for budget
// exhaustion or cancellation, distinct from 1 (generic error) and from
// domain-specific statuses like anonrisk's 3 (withhold verdict).
const ExitCodeBudget = 4

// ExitCode maps an error to the cmd/ exit-code convention: 0 for nil, 4 for
// budget exhaustion or cancellation, 1 otherwise.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case IsBudgetError(err):
		return ExitCodeBudget
	default:
		return 1
	}
}

// Run executes f, returning early with a typed budget error when the context
// expires first. It exists so CLI binaries can bound code paths that are not
// context-aware (mining, data generation): f keeps running on its goroutine
// after an early return, which is acceptable only when the process is about
// to exit. Context-aware code should thread a Budget instead.
func Run(ctx context.Context, f func() error) error {
	if err := ctx.Err(); err != nil {
		return WrapContextErr(err)
	}
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return WrapContextErr(ctx.Err())
	}
}
