package budget

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	for i := 0; i < 10_000; i++ {
		if err := b.Charge(1); err != nil {
			t.Fatalf("nil budget charged: %v", err)
		}
	}
	if b.Ops() != 0 || b.Err() != nil {
		t.Errorf("nil budget reports ops=%d err=%v", b.Ops(), b.Err())
	}
	if err := b.Check(); err != nil {
		t.Errorf("nil budget check: %v", err)
	}
}

func TestMaxOpsExhaustion(t *testing.T) {
	b := New(WithMaxOps(context.Background(), 100), Config{CheckEvery: 10})
	var err error
	charged := int64(0)
	for err == nil {
		err = b.Charge(1)
		charged++
		if charged > 1000 {
			t.Fatal("budget never exhausted")
		}
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	// Exhaustion is noticed within one CheckEvery window of the limit.
	if charged < 100 || charged > 110 {
		t.Errorf("exhausted after %d ops, want within one window of 100", charged)
	}
	// Sticky.
	if err2 := b.Charge(1); err2 != err {
		t.Errorf("sticky error lost: %v vs %v", err2, err)
	}
}

func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := New(ctx, Config{CheckEvery: 8})
	if err := b.Check(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Check = %v, want ErrCanceled", err)
	}
	if !errors.Is(b.Err(), context.Canceled) {
		t.Errorf("cause lost: %v", b.Err())
	}
}

func TestDeadlineBecomesBudgetExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	b := New(ctx, Config{})
	err := b.Check()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("deadline err = %v, want ErrBudgetExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cause lost: %v", err)
	}
	if !Degradable(err) {
		t.Error("deadline exhaustion must be degradable")
	}
}

func TestCanceledNotDegradable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := New(ctx, Config{}).Check()
	if Degradable(err) {
		t.Error("cancellation must not be degradable")
	}
	if !IsBudgetError(err) {
		t.Error("cancellation is still a budget error for exit codes")
	}
}

func TestChargeChecksWithinWindow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, Config{CheckEvery: 64})
	cancel()
	var err error
	n := 0
	for err == nil && n < 1000 {
		err = b.Charge(1)
		n++
	}
	if err == nil {
		t.Fatal("cancellation never noticed")
	}
	if n > 64 {
		t.Errorf("noticed after %d charges, want within one 64-op window", n)
	}
}

func TestWithMaxOpsFlowsIntoNew(t *testing.T) {
	ctx := WithMaxOps(context.Background(), 42)
	if got := MaxOps(ctx); got != 42 {
		t.Fatalf("MaxOps = %d", got)
	}
	b := New(ctx, Config{CheckEvery: 1})
	if err := b.Charge(43); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("context-carried limit ignored: %v", err)
	}
	// A nested WithMaxOps replaces the outer limit.
	b2 := New(WithMaxOps(ctx, 1000), Config{CheckEvery: 1})
	if err := b2.Charge(100); err != nil {
		t.Errorf("inner limit overridden by the outer one: %v", err)
	}
	// Non-positive limits don't annotate the context.
	if got := MaxOps(WithMaxOps(context.Background(), 0)); got != 0 {
		t.Errorf("zero limit stored: %d", got)
	}
}

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{ErrBudgetExceeded, 4},
		{ErrCanceled, 4},
		{fmt.Errorf("wrapped: %w", ErrBudgetExceeded), 4},
		{errors.New("boom"), 1},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestRun(t *testing.T) {
	if err := Run(context.Background(), func() error { return nil }); err != nil {
		t.Fatalf("Run ok path: %v", err)
	}
	want := errors.New("inner")
	if err := Run(context.Background(), func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("Run error path: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Run(ctx, func() error { return nil }); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run pre-canceled: %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	block := make(chan struct{})
	defer close(block)
	start := time.Now()
	err := Run(ctx2, func() error { <-block; return nil })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Run timeout: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("Run did not return promptly on timeout")
	}
}
