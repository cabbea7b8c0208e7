package resultcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a settable clock for deterministic TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newFakeCache(capacity int, ttl time.Duration) (*Cache[int], *fakeClock) {
	c := New[int](capacity, ttl)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c.now = clk.now
	return c, clk
}

func TestCacheBasic(t *testing.T) {
	c := New[string](4, 0)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", "1")
	if v, ok := c.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	c.Put("a", "2") // replace
	if v, _ := c.Get("a"); v != "2" {
		t.Fatalf("replace failed: %q", v)
	}
	c.Delete("a")
	if _, ok := c.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestCacheNilIsAlwaysMiss(t *testing.T) {
	var c *Cache[int]
	if c != New[int](0, 0) || New[int](-1, time.Second) != nil {
		t.Fatal("capacity ≤ 0 must return the nil always-miss cache")
	}
	c.Put("k", 1)
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	c.Delete("k")
	if c.Len() != 0 || c.Sweep(func(string, int) bool { return true }) != 0 {
		t.Fatal("nil cache must be empty and sweep nothing")
	}
}

// TestCacheTTLExpiry pins the TTL half of the staleness contract with an
// injected clock: an entry is served until its deadline and becomes a
// miss (and is dropped) the instant the clock passes it.
func TestCacheTTLExpiry(t *testing.T) {
	c, clk := newFakeCache(8, time.Minute)
	c.Put("k", 42)
	if v, ok := c.Get("k"); !ok || v != 42 {
		t.Fatal("fresh entry must hit")
	}
	clk.advance(time.Minute) // exactly at the deadline: still valid
	if _, ok := c.Get("k"); !ok {
		t.Fatal("entry at its deadline must still be served")
	}
	clk.advance(time.Nanosecond) // past it
	if _, ok := c.Get("k"); ok {
		t.Fatal("expired entry served")
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry not dropped: len = %d", c.Len())
	}
	// Re-putting restarts the clock.
	c.Put("k", 43)
	clk.advance(30 * time.Second)
	if v, ok := c.Get("k"); !ok || v != 43 {
		t.Fatal("re-put entry must get a fresh deadline")
	}
}

func TestCacheZeroTTLNeverExpires(t *testing.T) {
	c, clk := newFakeCache(8, 0)
	c.Put("k", 1)
	clk.advance(1000 * time.Hour)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("zero-TTL entry expired")
	}
}

// TestCacheSweep: Sweep drops both keep-rejected and expired entries.
// Capacity 64 gives every shard slack, so no key is LRU-evicted behind
// the test's back (tiny capacities stripe into single-entry shards).
func TestCacheSweep(t *testing.T) {
	c, clk := newFakeCache(64, time.Minute)
	c.Put("fresh", 1)
	c.Put("stale", 2)
	clk.advance(2 * time.Minute)
	c.Put("young", 3) // inserted after the advance: unexpired
	removed := c.Sweep(func(k string, _ int) bool { return k != "stale" })
	// "fresh" is expired, "stale" is keep-rejected (and also expired).
	if removed != 2 {
		t.Fatalf("swept %d entries, want 2", removed)
	}
	if _, ok := c.Get("young"); !ok {
		t.Fatal("sweep dropped a fresh kept entry")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Single shard (capacity 2 → ≤2 shards... force exactness with cap 2):
	// plancache stripes min(cap, 16) shards; with cap 2 each shard holds 1.
	c := New[int](2, 0)
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() > 2 {
		t.Fatalf("len = %d, want ≤ 2", c.Len())
	}
}

// TestCacheHitNoAllocs is the resultcache half of the hit-path allocation
// audit: a Get hit allocates nothing (the elp layer's copy-on-return is
// measured separately — the cache itself must be free).
func TestCacheHitNoAllocs(t *testing.T) {
	c := New[int](64, time.Hour)
	c.Put("hot", 7)
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := c.Get("hot"); !ok {
			t.Fatal("hot key missed")
		}
	})
	if allocs != 0 {
		t.Errorf("Get hit allocates %.1f objects/op, want 0", allocs)
	}
}

// awaitWaiters blocks until n callers are waiting on key's flight.
func awaitWaiters[V any](t *testing.T, f *Flights[V], key string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.Waiters(key) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters joined %q after 10s, want %d", f.Waiters(key), key, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFlightsSingleflight pins the collapse property deterministically:
// the leader blocks inside fn until every follower is OBSERVED waiting
// on the flight (waiter counter), so all N callers must share ONE
// execution — no scheduler luck involved.
func TestFlightsSingleflight(t *testing.T) {
	var f Flights[int]
	const followers = 8
	var execs atomic.Int32
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, followers+1)
	shareds := make([]bool, followers+1)
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		v, shared, err := f.Do("k", func() (int, error) {
			execs.Add(1)
			<-release
			return 99, nil
		})
		if err != nil {
			t.Error(err)
		}
		results[0], shareds[0] = v, shared
	}()
	// The leader's flight is registered before fn runs, and fn blocks on
	// release; wait for it, then launch the followers.
	awaitWaiters(t, &f, "k", 0)
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := f.Do("k", func() (int, error) {
				execs.Add(1)
				return -1, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], shareds[i] = v, shared
		}(i)
	}
	// Release the leader only once every follower is provably blocked on
	// the flight.
	awaitWaiters(t, &f, "k", followers)
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	sharedCount := 0
	for i, v := range results {
		if v != 99 {
			t.Fatalf("caller %d got %d, want 99", i, v)
		}
		if shareds[i] {
			sharedCount++
		}
	}
	if sharedCount != followers {
		t.Fatalf("%d callers shared, want %d (exactly one leader)", sharedCount, followers)
	}
}

// TestFlightsSequentialCallersEachExecute: Flights is not a cache — once
// a flight lands, the next caller starts a fresh one.
func TestFlightsSequentialCallersEachExecute(t *testing.T) {
	var f Flights[int]
	execs := 0
	for i := 0; i < 3; i++ {
		v, shared, err := f.Do("k", func() (int, error) {
			execs++
			return execs, nil
		})
		if err != nil || shared || v != i+1 {
			t.Fatalf("call %d: v=%d shared=%v err=%v", i, v, shared, err)
		}
	}
	if execs != 3 {
		t.Fatalf("execs = %d, want 3", execs)
	}
}

// TestFlightsErrorShared: an error from the leader is delivered to every
// waiter; nothing is retained afterwards.
func TestFlightsErrorShared(t *testing.T) {
	var f Flights[int]
	boom := errors.New("boom")
	release := make(chan struct{})
	var wg sync.WaitGroup
	errsc := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := f.Do("k", func() (int, error) {
			<-release
			return 0, boom
		})
		errsc <- err
	}()
	awaitWaiters(t, &f, "k", 0) // flight registered
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := f.Do("k", func() (int, error) { return 0, errors.New("second flight") })
			errsc <- err
		}()
	}
	awaitWaiters(t, &f, "k", 3) // all three provably share the flight
	close(release)
	wg.Wait()
	close(errsc)
	for err := range errsc {
		if err != boom {
			t.Fatalf("caller got err=%v, want shared %v", err, boom)
		}
	}
	if f.Waiters("k") != -1 {
		t.Error("flight retained after completion")
	}
}

// TestFlightsPanicUnblocksWaiters: a panicking leader must not leave
// waiters hanging; they receive an error and the panic propagates.
func TestFlightsPanicUnblocksWaiters(t *testing.T) {
	var f Flights[int]
	waiterErr := make(chan error, 1)
	go func() {
		awaitWaiters(t, &f, "k", 0) // leader's flight registered
		_, _, err := f.Do("k", func() (int, error) { return 1, nil })
		waiterErr <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		f.Do("k", func() (int, error) {
			awaitWaiters(t, &f, "k", 1) // panic only once the waiter shares the flight
			panic("kaboom")
		})
	}()
	select {
	case err := <-waiterErr:
		if err != errPanicked {
			t.Errorf("waiter got err=%v, want errPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked after leader panicked")
	}
}

// TestFlightsConcurrentDistinctKeys runs many keys concurrently under
// -race: flights of different keys never serialize each other's fn.
func TestFlightsConcurrentDistinctKeys(t *testing.T) {
	var f Flights[int]
	var wg sync.WaitGroup
	var total atomic.Int32
	for k := 0; k < 8; k++ {
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				v, _, err := f.Do(fmt.Sprintf("k%d", k), func() (int, error) {
					total.Add(1)
					return k, nil
				})
				if err != nil || v != k {
					t.Errorf("key %d: v=%d err=%v", k, v, err)
				}
			}(k)
		}
	}
	wg.Wait()
	if got := total.Load(); got < 8 || got > 32 {
		t.Fatalf("executions = %d, want within [8, 32]", got)
	}
}
