// Package resultcache provides the cross-query RESULT cache behind
// BlinkDB-Go's serving path: a sharded LRU from fully-bound query keys
// (template key + canonical parameter encoding, sqlparser.Normalize +
// ParamsKey) to completed answers, with per-entry wall-clock TTLs and a
// singleflight group that collapses concurrent misses of one key into a
// single execution.
//
// # Staleness contract
//
// A cached result is served only while BOTH freshness conditions hold;
// either failing makes the entry unservable:
//
//  1. Sample epochs. The caller (the ELP runtime) records, at execution
//     time, the catalog epoch of every table the answer depends on, and
//     re-validates them on every hit. Any epoch change — RefreshSamples,
//     a Maintain rebuild/drop, a table reload — means the sample data the
//     answer was computed from no longer exists, and the entry must not
//     be served. The cache itself never inspects values; epoch validation
//     is the caller's half of the contract (mirroring plancache).
//
//  2. TTL. An optional wall-clock bound on answer age, for deployments
//     where the base data keeps changing underneath unchanged samples
//     (epochs only track sample rebuilds, not upstream drift). A zero TTL
//     means entries live until evicted or epoch-invalidated.
//
// What a hit guarantees: the key binds the template AND the full
// parameter vector (every comparison literal, error/time bound,
// confidence and LIMIT), so — unlike the plan cache's template-level
// probe reuse, which answers NEW constants from cached probe statistics —
// a result-cache hit replays an exact prior query and returns a deep copy
// of the very answer that query computed. Within one epoch a replay is
// therefore bit-identical to re-executing (the executor is deterministic);
// copies are handed out (copy-on-return) so callers mutating a returned
// Result can never corrupt the cached canonical copy or other callers'
// views.
//
// The LRU itself is plancache.Cache (up to 16 mutex-striped shards,
// exact per-shard recency); this package layers entry deadlines and the
// singleflight group on top. The Get hit path performs no allocations.
package resultcache

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"blinkdb/internal/plancache"
)

// errPanicked is returned to singleflight waiters when the in-flight
// leader panicked before producing a value.
var errPanicked = errors.New("resultcache: in-flight computation panicked")

// entry pairs a cached value with its expiry deadline (zero = no TTL).
type entry[V any] struct {
	val      V
	deadline time.Time
}

// Cache is a sharded LRU with per-entry TTLs. A nil *Cache is a valid
// always-miss cache (the "result cache disabled" state), mirroring
// plancache's convention.
type Cache[V any] struct {
	lru *plancache.Cache[*entry[V]]
	ttl time.Duration
	// now is the clock; tests inject a fake to pin TTL expiry
	// deterministically.
	now func() time.Time
}

// New creates a cache holding up to capacity entries whose values expire
// ttl after insertion (ttl ≤ 0 disables expiry). Capacity ≤ 0 returns
// nil — the always-miss cache.
func New[V any](capacity int, ttl time.Duration) *Cache[V] {
	lru := plancache.New[*entry[V]](capacity)
	if lru == nil {
		return nil
	}
	if ttl < 0 {
		ttl = 0
	}
	return &Cache[V]{lru: lru, ttl: ttl, now: time.Now}
}

// Get returns the cached value and marks it most recently used. An entry
// past its deadline is removed and reported as a miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	e, ok := c.lru.Get(key)
	if !ok {
		return zero, false
	}
	if !e.deadline.IsZero() && c.now().After(e.deadline) {
		// Identity-checked eviction: between loading e and deleting it, a
		// concurrent Put may have refreshed the slot — an unconditional
		// delete would evict the FRESH entry and force re-execution at
		// every TTL boundary under concurrency.
		c.lru.DeleteIf(key, func(cur *entry[V]) bool { return cur == e })
		return zero, false
	}
	return e.val, true
}

// Put inserts or replaces the value for key, stamping a fresh deadline.
func (c *Cache[V]) Put(key string, v V) {
	if c == nil {
		return
	}
	e := &entry[V]{val: v}
	if c.ttl > 0 {
		e.deadline = c.now().Add(c.ttl)
	}
	c.lru.Put(key, e)
}

// PutWithDeadline inserts or replaces the value for key with an explicit
// absolute expiry deadline (zero = no TTL), bypassing the cache's
// configured TTL. Boot-time restore uses it to re-insert snapshotted
// entries under their ORIGINAL deadlines, so a restart never extends a
// cached answer's life beyond what the pre-restart process promised.
func (c *Cache[V]) PutWithDeadline(key string, v V, deadline time.Time) {
	if c == nil {
		return
	}
	c.lru.Put(key, &entry[V]{val: v, deadline: deadline})
}

// Range calls fn for every live (non-expired) entry together with its
// absolute expiry deadline (zero = no TTL), without touching recency
// order. Iteration stops early when fn returns false; fn must not call
// back into the cache. Expired-but-unswept entries are skipped, not
// removed (Range takes only read-side shard locks via the LRU).
func (c *Cache[V]) Range(fn func(key string, v V, deadline time.Time) bool) {
	if c == nil {
		return
	}
	now := c.now()
	c.lru.Range(func(k string, e *entry[V]) bool {
		if !e.deadline.IsZero() && now.After(e.deadline) {
			return true
		}
		return fn(k, e.val, e.deadline)
	})
}

// Delete removes the key if present.
func (c *Cache[V]) Delete(key string) {
	if c == nil {
		return
	}
	c.lru.Delete(key)
}

// Sweep removes every expired entry and every entry for which keep
// returns false, reporting how many were removed. The ELP runtime sweeps
// the moment it observes one epoch-stale entry, so answers computed
// against dead catalog snapshots never ride the LRU.
func (c *Cache[V]) Sweep(keep func(key string, v V) bool) int {
	if c == nil {
		return 0
	}
	now := c.now()
	return c.lru.Sweep(func(k string, e *entry[V]) bool {
		if !e.deadline.IsZero() && now.After(e.deadline) {
			return false
		}
		return keep(k, e.val)
	})
}

// Len returns the current entry count (expired-but-unswept entries
// included; they are dropped lazily on Get/Sweep).
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	return c.lru.Len()
}

// flight is one in-progress computation shared by concurrent callers.
type flight[V any] struct {
	done chan struct{}
	// waiters counts callers blocked on done (cold path only; see
	// Waiters).
	waiters atomic.Int32
	val     V
	err     error
}

// Flights collapses concurrent computations of one key: the first caller
// (the leader) runs the function; callers arriving while it is in flight
// block and share the leader's outcome instead of re-executing. The zero
// value is ready to use.
//
// Unlike a cache, Flights retains nothing after the leader returns — a
// caller arriving later starts a fresh flight. The ELP runtime pairs it
// with Cache: N concurrent misses of one cold key run the chosen view
// scan once, then the Put'd entry serves everyone else.
type Flights[V any] struct {
	mu sync.Mutex
	m  map[string]*flight[V]
}

// Do returns the result of fn for key, executing it at most once across
// concurrent callers. shared is false for the leader that executed fn and
// true for callers that received the leader's outcome. Errors are shared
// like values and cached by nobody. If the leader panics, the panic
// propagates on the leader and waiters receive a non-nil error.
func (f *Flights[V]) Do(key string, fn func() (V, error)) (v V, shared bool, err error) {
	f.mu.Lock()
	if f.m == nil {
		f.m = make(map[string]*flight[V])
	}
	if fl, ok := f.m[key]; ok {
		fl.waiters.Add(1)
		f.mu.Unlock()
		<-fl.done
		return fl.val, true, fl.err
	}
	fl := &flight[V]{done: make(chan struct{})}
	f.m[key] = fl
	f.mu.Unlock()

	completed := false
	defer func() {
		if !completed {
			fl.err = errPanicked // leader panicked: unblock waiters with an error
		}
		f.mu.Lock()
		delete(f.m, key)
		f.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = fn()
	completed = true
	return fl.val, false, fl.err
}

// Waiters reports how many callers are blocked sharing the in-flight
// computation for key (-1 when no flight is registered). It lets tests
// build deterministic stampedes: wait until the callers have joined
// instead of sleeping.
func (f *Flights[V]) Waiters(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fl, ok := f.m[key]; ok {
		return int(fl.waiters.Load())
	}
	return -1
}
