// Package riskcache is the content-addressed assessment cache behind riskd
// (cmd/riskd, internal/server). Re-identification risk scoring is a repeated,
// per-release query: the same published table gets assessed many times — by
// different reviewers, dashboards, or retries — under the same belief spec
// and options. Every one of those computations is a pure function of
// (dataset digest, canonicalized belief digest, options), so the cache keys
// on exactly that triple and turns repeats into O(1) lookups.
//
// Two mechanisms compose:
//
//   - A bounded LRU over completed results. Entries are immutable once
//     stored; eviction is least-recently-used so the hot releases stay
//     resident under memory pressure.
//   - Single-flight deduplication over in-progress computations. Concurrent
//     identical requests share one computation: the first caller computes,
//     the rest wait on its result (or their own context, whichever ends
//     first). A thundering herd against one release costs one assessment.
//
// The compute callback decides cacheability: degraded results — produced
// under deadline pressure that a later, less-loaded run would not hit — are
// shared with concurrent waiters but not stored, so a transiently overloaded
// server does not pin a conservative answer forever.
package riskcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"repro/internal/budget"
)

// Key builds a content address from the parts that determine an assessment:
// each part is length-prefixed before hashing, so distinct part lists cannot
// collide by concatenation ("ab","c" vs "a","bc").
func Key(parts ...string) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(p)))
		h.Write(buf[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Source says how a GetOrCompute call obtained its value.
type Source int

const (
	// Computed: this caller ran the computation.
	Computed Source = iota
	// Hit: the value came from the LRU.
	Hit
	// Coalesced: an identical in-flight computation was joined.
	Coalesced
)

func (s Source) String() string {
	switch s {
	case Computed:
		return "computed"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "unknown"
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Coalesced int64 `json:"coalesced"`
	// StoreFailed counts computed results that could not be stored because
	// the store hook refused (fault injection, or a real admission policy).
	// The result was still returned to its callers; only the caching was
	// lost, so the next identical request recomputes.
	StoreFailed int64 `json:"store_failed"`
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

type entry[V any] struct {
	key string
	val V
}

// Cache is the content-addressed LRU with single-flight deduplication. The
// zero value is not usable; construct with New. All methods are safe for
// concurrent use.
type Cache[V any] struct {
	mu          sync.Mutex
	maxEntries  int
	ll          *list.List
	entries     map[string]*list.Element
	inflight    map[string]*call[V]
	storeHook   func(key string) error
	hits        int64
	misses      int64
	evictions   int64
	coalesced   int64
	storeFailed int64
}

// New creates a cache holding at most maxEntries completed results
// (maxEntries <= 0 means an unbounded cache).
func New[V any](maxEntries int) *Cache[V] {
	return &Cache[V]{
		maxEntries: maxEntries,
		ll:         list.New(),
		entries:    make(map[string]*list.Element),
		inflight:   make(map[string]*call[V]),
	}
}

// SetStoreHook installs a gate in front of every store of a computed
// result: a non-nil error from the hook skips the store (the value is still
// returned to callers) and bumps Stats.StoreFailed. The fault-injection
// harness uses it to model a cache backend that drops writes; nil removes
// the gate. Not safe to call concurrently with GetOrCompute — install it
// before serving.
func (c *Cache[V]) SetStoreHook(hook func(key string) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeHook = hook
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ele, ok := c.entries[key]; ok {
		c.ll.MoveToFront(ele)
		c.hits++
		return ele.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Touch marks key most recently used and reports whether it is present. It
// counts neither a hit nor a miss: to a present entry it does what a Put of
// an equal value does.
func (c *Cache[V]) Touch(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ele, ok := c.entries[key]
	if ok {
		c.ll.MoveToFront(ele)
	}
	return ok
}

// Put stores val under key unconditionally, marking it most recently used
// and evicting the oldest entry on overflow. It is the registration path for
// values that arrive outside a computation — e.g. the delta endpoint's
// base-table registry, where the table IS the content rather than something
// computed from it.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, val)
}

// GetOrCompute returns the value for key, computing it at most once across
// concurrent callers:
//
//   - On an LRU hit the stored value returns immediately (Source Hit).
//   - When an identical computation is already in flight, the call blocks
//     until it finishes and shares its value and error (Source Coalesced).
//     ctx bounds only the wait: if it ends first, the caller gets the typed
//     budget error while the leader's computation keeps running for the
//     others.
//   - Otherwise this caller runs compute (Source Computed). compute returns
//     (value, cacheable, error); the value is stored only when the error is
//     nil and cacheable is true, so callers can share degraded results with
//     the coalesced waiters without pinning them in the cache. Errors are
//     never cached: the next request retries.
func (c *Cache[V]) GetOrCompute(ctx context.Context, key string, compute func() (V, bool, error)) (V, Source, error) {
	c.mu.Lock()
	if ele, ok := c.entries[key]; ok {
		c.ll.MoveToFront(ele)
		c.hits++
		c.mu.Unlock()
		return ele.Value.(*entry[V]).val, Hit, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		select {
		case <-cl.done:
			return cl.val, Coalesced, cl.err
		case <-ctx.Done():
			var zero V
			return zero, Coalesced, budget.WrapContextErr(ctx.Err())
		}
	}
	cl := &call[V]{done: make(chan struct{})}
	c.inflight[key] = cl
	c.misses++
	c.mu.Unlock()

	val, cacheable, err := compute()
	cl.val, cl.err = val, err
	close(cl.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil && cacheable {
		if c.storeHook != nil {
			if hookErr := c.storeHook(key); hookErr != nil {
				c.storeFailed++
			} else {
				c.add(key, val)
			}
		} else {
			c.add(key, val)
		}
	}
	c.mu.Unlock()
	return val, Computed, err
}

// add inserts under c.mu, evicting the least recently used entry on overflow.
func (c *Cache[V]) add(key string, val V) {
	if ele, ok := c.entries[key]; ok {
		c.ll.MoveToFront(ele)
		ele.Value.(*entry[V]).val = val
		return
	}
	c.entries[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	if c.maxEntries > 0 && c.ll.Len() > c.maxEntries {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[V]).key)
		c.evictions++
	}
}

// Len returns the number of completed results currently cached.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:     c.ll.Len(),
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Coalesced:   c.coalesced,
		StoreFailed: c.storeFailed,
	}
}
