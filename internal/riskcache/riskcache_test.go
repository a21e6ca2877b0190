package riskcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/budget"
)

func TestKeyDistinctAndStable(t *testing.T) {
	if Key("a", "bc") == Key("ab", "c") {
		t.Error("length-prefixing failed: concatenation collision")
	}
	if Key("x", "y") != Key("x", "y") {
		t.Error("Key not deterministic")
	}
	if Key() == Key("") {
		t.Error("empty part list should differ from one empty part")
	}
}

func TestGetOrComputeHitMissEvict(t *testing.T) {
	c := New[int](2)
	ctx := context.Background()
	compute := func(v int) func() (int, bool, error) {
		return func() (int, bool, error) { return v, true, nil }
	}

	v, src, err := c.GetOrCompute(ctx, "a", compute(1))
	if err != nil || v != 1 || src != Computed {
		t.Fatalf("first = (%d, %v, %v), want (1, computed, nil)", v, src, err)
	}
	v, src, err = c.GetOrCompute(ctx, "a", compute(99))
	if err != nil || v != 1 || src != Hit {
		t.Fatalf("second = (%d, %v, %v), want (1, hit, nil)", v, src, err)
	}

	// Fill beyond capacity: "a" was just used, so "b" is the LRU victim.
	c.GetOrCompute(ctx, "b", compute(2))
	c.GetOrCompute(ctx, "a", compute(99)) // touch a
	c.GetOrCompute(ctx, "c", compute(3))  // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived eviction")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries, 1 eviction", st)
	}
}

func TestErrorsAndUncacheableNotStored(t *testing.T) {
	c := New[int](4)
	ctx := context.Background()

	calls := 0
	fail := func() (int, bool, error) { calls++; return 0, true, errors.New("boom") }
	if _, _, err := c.GetOrCompute(ctx, "k", fail); err == nil {
		t.Fatal("want error")
	}
	if _, _, err := c.GetOrCompute(ctx, "k", fail); err == nil {
		t.Fatal("want error on retry (errors are not cached)")
	}
	if calls != 2 {
		t.Errorf("failed compute ran %d times, want 2 (no caching of errors)", calls)
	}

	degraded := func() (int, bool, error) { return 7, false, nil }
	v, src, err := c.GetOrCompute(ctx, "d", degraded)
	if err != nil || v != 7 || src != Computed {
		t.Fatalf("degraded = (%d, %v, %v)", v, src, err)
	}
	if _, ok := c.Get("d"); ok {
		t.Error("uncacheable result must not be stored")
	}
}

func TestSingleFlightDedup(t *testing.T) {
	c := New[int](4)
	ctx := context.Background()
	var computes atomic.Int64
	release := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	srcs := make([]Source, waiters)
	vals := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, src, err := c.GetOrCompute(ctx, "shared", func() (int, bool, error) {
				computes.Add(1)
				<-release
				return 42, true, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			vals[i], srcs[i] = v, src
		}(i)
	}
	// Wait until one leader is in flight and every other waiter has joined
	// it, then let everyone through. Releasing earlier lets a late waiter
	// find the stored value and read a hit instead of a coalesced wait.
	deadline := time.After(5 * time.Second)
	for computes.Load() == 0 || c.Stats().Coalesced < waiters-1 {
		select {
		case <-deadline:
			t.Fatalf("waiters did not join one in-flight call: %d computes, %d coalesced",
				computes.Load(), c.Stats().Coalesced)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under %d concurrent identical calls, want 1", n, waiters)
	}
	nComputed, nCoalesced := 0, 0
	for i := range srcs {
		if vals[i] != 42 {
			t.Errorf("waiter %d got %d, want 42", i, vals[i])
		}
		switch srcs[i] {
		case Computed:
			nComputed++
		case Coalesced:
			nCoalesced++
		default:
			t.Errorf("waiter %d: unexpected source %v", i, srcs[i])
		}
	}
	if nComputed != 1 || nCoalesced != waiters-1 {
		t.Errorf("sources: %d computed, %d coalesced; want 1 and %d", nComputed, nCoalesced, waiters-1)
	}
	if st := c.Stats(); st.Coalesced != waiters-1 {
		t.Errorf("Stats.Coalesced = %d, want %d", st.Coalesced, waiters-1)
	}
}

func TestCoalescedWaiterRespectsOwnContext(t *testing.T) {
	c := New[int](4)
	release := make(chan struct{})
	defer close(release)

	started := make(chan struct{})
	go c.GetOrCompute(context.Background(), "slow", func() (int, bool, error) {
		close(started)
		<-release
		return 1, true, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, src, err := c.GetOrCompute(ctx, "slow", func() (int, bool, error) {
		t.Error("second caller must coalesce, not compute")
		return 0, false, nil
	})
	if src != Coalesced {
		t.Errorf("source = %v, want coalesced", src)
	}
	if !errors.Is(err, budget.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	c := New[string](8)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%4)
			want := fmt.Sprintf("v%d", i%4)
			v, _, err := c.GetOrCompute(ctx, key, func() (string, bool, error) {
				return want, true, nil
			})
			if err != nil || v != want {
				t.Errorf("key %s = (%q, %v), want %q", key, v, err, want)
			}
		}(i)
	}
	wg.Wait()
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
}
