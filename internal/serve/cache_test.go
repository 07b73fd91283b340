package serve

import (
	"fmt"
	"testing"

	"rsnrobust/internal/telemetry"
)

// TestResultCacheDisabledSemantics: the regression for the disabled-
// cache bug — capacity 0 disabled stores (put returned early) but the
// read path only checked cap < 0, so every request still took the lock,
// probed the map and counted a miss. Disabled must mean disabled on
// both paths, for both spellings (0 and negative): lookups fail, stores
// vanish, and the hit/miss counters never move.
func TestResultCacheDisabledSemantics(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			tel := telemetry.New()
			c := NewResultCache(capacity, tel, "serve.cache")
			if _, ok := c.Get("k"); ok {
				t.Fatal("empty disabled cache claimed a hit")
			}
			c.Put("k", []byte(`{"network":"x","cached":false}`))
			if _, ok := c.Get("k"); ok {
				t.Fatal("disabled cache returned a stored value")
			}
			snap := tel.Snapshot()
			if h, m := snap.Counters["serve.cache.hits"], snap.Counters["serve.cache.misses"]; h != 0 || m != 0 {
				t.Errorf("disabled cache touched counters: hits=%d misses=%d, want 0/0", h, m)
			}
			if s := snap.Gauges["serve.cache.size"]; s != 0 {
				t.Errorf("disabled cache reported size %v", s)
			}
		})
	}
	// Sanity contrast: an enabled cache does count the miss.
	tel := telemetry.New()
	c := NewResultCache(4, tel, "serve.cache")
	if _, ok := c.Get("k"); ok {
		t.Fatal("empty enabled cache claimed a hit")
	}
	if m := tel.Snapshot().Counters["serve.cache.misses"]; m != 1 {
		t.Errorf("enabled cache misses = %d, want 1", m)
	}
}

// TestResultCacheLRU pins the one result cache both the worker and the
// coordinator L1 run on: least-recently-used eviction at capacity, one
// "cached" flip per hit (never a second one, however often the entry
// is read), and hits the caller owns, so mutating one leaves the entry
// intact. The counters report under the prefix they were given.
func TestResultCacheLRU(t *testing.T) {
	tel := telemetry.New()
	c := NewResultCache(2, tel, "fleet.cache")
	payload := func(k string) []byte {
		return []byte(fmt.Sprintf(`{"network":%q,"front":[],"interrupted":false,"cached":false,"elapsed_ms":1}`, k))
	}
	hit := func(k string) string {
		return fmt.Sprintf(`{"network":%q,"front":[],"interrupted":false,"cached":true,"elapsed_ms":1}`, k)
	}

	c.Put("a", payload("a"))
	c.Put("b", payload("b"))
	if _, ok := c.Get("a"); !ok { // a is now the most recently used
		t.Fatal("a missing")
	}
	c.Put("c", payload("c")) // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction although a was used after it")
	}
	for _, k := range []string{"a", "c"} {
		for i := 0; i < 3; i++ {
			got, ok := c.Get(k)
			if !ok {
				t.Fatalf("%s evicted out of order", k)
			}
			if string(got) != hit(k) {
				t.Fatalf("hit %d of %s = %s, want %s", i, k, got, hit(k))
			}
			for j := range got {
				got[j] = 'x'
			}
		}
	}
	if n := c.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}

	c.Put("a", payload("a2")) // replacing an entry keeps the count
	if got, _ := c.Get("a"); string(got) != hit("a2") {
		t.Errorf("replaced entry = %s, want %s", got, hit("a2"))
	}
	snap := tel.Snapshot()
	if h, m := snap.Counters["fleet.cache.hits"], snap.Counters["fleet.cache.misses"]; h != 8 || m != 1 {
		t.Errorf("hits/misses = %d/%d, want 8/1", h, m)
	}
	if s := snap.Gauges["fleet.cache.size"]; s != 2 {
		t.Errorf("fleet.cache.size = %v, want 2", s)
	}
}
