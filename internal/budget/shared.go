package budget

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Charger is the budget-charging surface shared by the single-goroutine
// Budget and the worker views of a Shared budget, so hot loops (the MCMC
// sampler, the O-estimate sum) can be charged identically whether they run
// serially or inside a worker pool.
type Charger interface {
	// Charge records n operations; once per CheckEvery charged operations it
	// polls the deadline and the operation limit. The error is sticky.
	Charge(n int64) error
	// Check polls immediately, regardless of the CheckEvery window.
	Check() error
}

var (
	_ Charger = (*Budget)(nil)
	_ Charger = (*Worker)(nil)
)

// Shared is a work budget charged atomically by a pool of parallel workers:
// one operation limit and one deadline bound the *sum* of the workers' work,
// exactly like the serial computation they replace. (A plain Budget is
// single-goroutine; giving each worker its own would multiply the caller's
// limit by the worker count.)
//
// Workers do not charge the shared counter directly — each holds a Worker
// view that batches charges locally and flushes once per CheckEvery
// operations, so the atomic is touched a few times per million operations
// instead of once per operation.
//
// Exhaustion is sticky and global: the first worker to observe it stores the
// typed error and every later Charge/Check on any view returns it, so the
// whole fan-out winds down at its next budget check.
type Shared struct {
	ctx        context.Context
	maxOps     int64
	checkEvery int64
	ops        atomic.Int64
	failed     atomic.Bool
	mu         sync.Mutex
	err        error
}

// NewShared creates a budget for a parallel fan-out under ctx, limited by
// its deadline and its WithMaxOps value.
func NewShared(ctx context.Context, cfg Config) *Shared {
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = DefaultCheckEvery
	}
	return &Shared{ctx: ctx, maxOps: MaxOps(ctx), checkEvery: cfg.CheckEvery}
}

// Worker returns a fresh single-goroutine view of the shared budget. Each
// pool worker (or each work item) takes its own; views must not be shared
// across goroutines.
func (s *Shared) Worker() *Worker { return &Worker{s: s} }

// Ops returns the operations flushed to the shared counter so far. Workers'
// unflushed local batches (< CheckEvery each) are not included.
func (s *Shared) Ops() int64 { return s.ops.Load() }

// Err returns the sticky exhaustion error, or nil while the budget holds.
func (s *Shared) Err() error {
	if !s.failed.Load() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Check polls the context and the operation limit immediately.
func (s *Shared) Check() error {
	return s.check(0)
}

// check flushes n pending operations and polls. It is safe for concurrent
// use; the sticky error is written once under the mutex.
func (s *Shared) check(n int64) error {
	if s.failed.Load() {
		return s.Err()
	}
	total := s.ops.Add(n)
	var err error
	switch {
	case s.ctx.Err() != nil:
		err = WrapContextErr(s.ctx.Err())
	case s.maxOps > 0 && total > s.maxOps:
		err = fmt.Errorf("%w: %d operations (limit %d)", ErrBudgetExceeded, total, s.maxOps)
	default:
		return nil
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	err = s.err
	s.mu.Unlock()
	s.failed.Store(true)
	return err
}

// Worker is one goroutine's view of a Shared budget. It satisfies Charger
// with the same batching contract as Budget: context and limit are polled
// once per CheckEvery charged operations.
type Worker struct {
	s       *Shared
	pending int64
}

// Charge records n operations against the shared budget.
func (w *Worker) Charge(n int64) error {
	w.pending += n
	if w.pending < w.s.checkEvery {
		// Cheap early-out so a fan-out stops promptly once any sibling
		// exhausted the budget, without waiting out the local batch.
		if w.s.failed.Load() {
			return w.s.Err()
		}
		return nil
	}
	n, w.pending = w.pending, 0
	return w.s.check(n)
}

// Check flushes the local batch and polls the shared budget immediately.
func (w *Worker) Check() error {
	n := w.pending
	w.pending = 0
	return w.s.check(n)
}
