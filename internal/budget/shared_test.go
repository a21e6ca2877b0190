package budget

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestSharedInheritsContextMaxOps(t *testing.T) {
	ctx := WithMaxOps(context.Background(), 100)
	s := NewShared(ctx, Config{CheckEvery: 1})
	w := s.Worker()
	var err error
	for i := 0; i < 200 && err == nil; i++ {
		err = w.Charge(1)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded from the inherited limit", err)
	}
}

func TestSharedUnlimited(t *testing.T) {
	s := NewShared(context.Background(), Config{CheckEvery: 1})
	w := s.Worker()
	for i := 0; i < 10000; i++ {
		if err := w.Charge(1); err != nil {
			t.Fatalf("unlimited budget failed: %v", err)
		}
	}
}

func TestWorkerBatchesCharges(t *testing.T) {
	s := NewShared(WithMaxOps(context.Background(), 1<<30), Config{CheckEvery: 100})
	w := s.Worker()
	for i := 0; i < 99; i++ {
		if err := w.Charge(1); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Ops(); got != 0 {
		t.Errorf("ops flushed early: %d, want 0 before the batch fills", got)
	}
	if err := w.Charge(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Ops(); got != 100 {
		t.Errorf("ops = %d after batch flush, want 100", got)
	}
	// Check flushes the partial batch immediately.
	if err := w.Charge(7); err != nil {
		t.Fatal(err)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	if got := s.Ops(); got != 107 {
		t.Errorf("ops = %d after Check, want 107", got)
	}
}

func TestSharedExhaustionIsStickyAcrossViews(t *testing.T) {
	s := NewShared(WithMaxOps(context.Background(), 10), Config{CheckEvery: 1})
	w1 := s.Worker()
	var err error
	for i := 0; i < 20 && err == nil; i++ {
		err = w1.Charge(1)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("w1 err = %v", err)
	}
	// A fresh view must see the exhaustion on its first charge (the early-out
	// path), without contributing further operations.
	w2 := s.Worker()
	if err := w2.Charge(1); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("w2 first Charge = %v, want sticky ErrBudgetExceeded", err)
	}
	if err := s.Err(); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("Shared.Err = %v", err)
	}
	if err := s.Check(); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("Shared.Check = %v", err)
	}
}

func TestSharedConcurrentCharging(t *testing.T) {
	// Many goroutines hammering one limit: the total flushed must never
	// wildly exceed the limit + workers×CheckEvery, and every worker must
	// eventually observe the exhaustion.
	const workers, checkEvery = 8, 16
	s := NewShared(WithMaxOps(context.Background(), 10000), Config{CheckEvery: checkEvery})
	var wg sync.WaitGroup
	errsSeen := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := s.Worker()
			for {
				if err := w.Charge(1); err != nil {
					errsSeen[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errsSeen {
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("worker %d err = %v", g, err)
		}
	}
	if got, limit := s.Ops(), int64(10000+workers*checkEvery); got > limit {
		t.Errorf("flushed %d operations, want <= %d (limit + batch slack)", got, limit)
	}
}

func TestSharedCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewShared(ctx, Config{CheckEvery: 1})
	err := s.Worker().Charge(1)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if Degradable(err) {
		t.Error("cancellation must not be degradable")
	}
}

func TestSharedBudgetExceededIsDegradable(t *testing.T) {
	s := NewShared(WithMaxOps(context.Background(), 1), Config{CheckEvery: 1})
	w := s.Worker()
	w.Charge(1)
	err := w.Charge(1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v", err)
	}
	if !Degradable(err) {
		t.Error("shared exhaustion must stay degradable for the cascade")
	}
}
