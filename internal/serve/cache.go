package serve

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"rsnrobust/internal/telemetry"
)

// ResultCache is the content-addressed LRU of completed harden
// results, the one type behind both layers of the fleet-wide cache: a
// worker's (serve.cache.*) and the coordinator's L1 (fleet.cache.*).
// It is keyed by the content address in wire form (CacheKey,
// HardenBodyCacheKey), so it dedups whole runs across requests. An
// entry is the encoded result payload exactly as it first went out, so
// a hit is answered without re-encoding and stays byte-identical to
// the fresh response but for the "cached" flag. Only completed
// (uninterrupted) results are stored — the callers check — so a
// deadline-truncated front can never shadow the real one; the deadline
// itself is deliberately not part of the key, because it bounds effort
// rather than defining the result.
type ResultCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	cap     int

	hits   *telemetry.Counter
	misses *telemetry.Counter
	size   *telemetry.Gauge
}

type cacheEntry struct {
	key  string
	data []byte
}

// NewResultCache builds a cache of the given capacity that reports as
// <prefix>.hits, .misses and .size. Capacity ≤ 0 disables caching
// entirely: lookups fail and stores are dropped without taking the
// lock or touching the hit/miss counters, so a disabled cache is free
// and invisible in /metrics.
func NewResultCache(capacity int, tel *telemetry.Collector, prefix string) *ResultCache {
	return &ResultCache{
		entries: make(map[string]*list.Element),
		order:   list.New(),
		cap:     capacity,
		hits:    tel.Counter(prefix + ".hits"),
		misses:  tel.Counter(prefix + ".misses"),
		size:    tel.Gauge(prefix + ".size"),
	}
}

var (
	cachedFalse = []byte(`"cached":false`)
	cachedTrue  = []byte(`"cached":true`)
)

// Get returns a copy of the payload stored under key with its "cached"
// flag set; the caller owns it and cannot corrupt the entry. The flip
// is a byte substitution rather than a re-encode: decoding and
// re-marshalling would cost a full encode and could reorder keys.
// HardenResponse always carries exactly one "cached" field and no
// response string can contain the quoted pattern, so replacing the
// first match is exact. The copy keeps one spare byte of capacity, so
// WritePayload appends its newline without copying the payload again.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.order.MoveToFront(el)
	data := el.Value.(*cacheEntry).data
	hit := make([]byte, 0, len(data)+1)
	if i := bytes.Index(data, cachedFalse); i >= 0 {
		hit = append(append(hit, data[:i]...), cachedTrue...)
		data = data[i+len(cachedFalse):]
	}
	return append(hit, data...), true
}

// Put stores a completed result payload under key, evicting the least
// recently used entry when full. The cache keeps data itself: the
// caller must not modify it afterwards.
func (c *ResultCache) Put(key string, data []byte) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).data = data
		c.order.MoveToFront(el)
		return
	}
	for len(c.entries) >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, data: data})
	c.size.Set(float64(len(c.entries)))
}

// Len reports the number of entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// cacheKey hashes the canonical request content with FNV-1a/64. Every
// field is length- or tag-delimited, so distinct requests cannot
// collide by concatenation.
type cacheKey struct {
	h interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
}

func newCacheKey() *cacheKey { return &cacheKey{h: fnv.New64a()} }

func (k *cacheKey) str(tag string, s string) *cacheKey {
	k.h.Write([]byte(tag))
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	k.h.Write(n[:])
	k.h.Write([]byte(s))
	return k
}

func (k *cacheKey) i64(tag string, v int64) *cacheKey {
	k.h.Write([]byte(tag))
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(v))
	k.h.Write(n[:])
	return k
}

func (k *cacheKey) boolean(tag string, v bool) *cacheKey {
	b := int64(0)
	if v {
		b = 1
	}
	return k.i64(tag, b)
}

func (k *cacheKey) sum() uint64 { return k.h.Sum64() }

// hardenCacheKey derives the content address of a harden request from
// its semantic payload: the network bytes (inline ICL or the named
// generator), the spec selector and seed, and every option that shapes
// the result. DeadlineMS and NoCache are excluded on purpose — they
// modulate effort and caching policy, not the converged answer.
func hardenCacheKey(req *HardenRequest) uint64 {
	k := newCacheKey()
	k.str("icl", req.Network.ICL)
	k.str("name", req.Network.Name)
	k.boolean("spec.gen", req.Spec.Generate)
	k.i64("spec.seed", req.Spec.Seed)
	o := req.Options
	k.str("algo", o.Algorithm)
	k.i64("gens", int64(o.Generations))
	k.i64("pop", int64(o.Population))
	k.i64("seed", o.Seed)
	k.str("scope", o.Scope)
	k.boolean("force", o.ForceCritical)
	k.i64("stag", int64(o.Stagnation))
	// Islands was canonicalized by validate (1 collapsed to 0), so the
	// two spellings of a single-population run share one entry.
	k.i64("islands", int64(o.Islands))
	// Objectives were canonicalized by validate (sorted into table
	// order, deduplicated, default pair collapsed to empty), so a
	// permuted spelling of the same set hashes identically.
	k.str("objs", strings.Join(o.Objectives, ","))
	return k.sum()
}

// CacheKeyHeader is the response header carrying the content address of
// a harden request. Workers set it on every /v1/harden response (cached
// or not, plain or streamed) right after validation; the coordinator
// sets it on cacheable requests it routes or answers from its own L1.
// The same key also appears as "cache_key" in /v1/jobs entries, so a
// client can correlate a response with the job that produced it and
// predict whether a repeat will hit.
const CacheKeyHeader = "X-RSN-Cache-Key"

// CacheKey returns the request's content address in wire form, 16
// lowercase hex digits, zero-padded: the key of both cache layers. The
// request must already be canonical — validate (server side) or
// canonicalizeKeyFields (HardenBodyCacheKey) has run — otherwise the
// two spellings of a default (generations 0 vs 500, islands 1 vs 0,
// algorithm "spea2" vs omitted, permuted objectives) would hash apart.
func (req *HardenRequest) CacheKey() string {
	return fmt.Sprintf("%016x", hardenCacheKey(req))
}

// HardenBodyCacheKey derives the cache key straight from a raw
// /v1/harden request body, applying the same canonicalization a worker
// applies during validation. This is how the fleet coordinator shares
// one address space with every worker-local cache without holding a
// server Config: the key it computes for routing and for its L1 is
// bit-for-bit the key the worker will stamp on the response. ok is
// false for bodies that do not decode as a harden request; range errors
// (which a worker would 400) are deliberately not re-checked here —
// such a request produces no cache entry anywhere, so a key for it is
// harmless.
func HardenBodyCacheKey(body []byte) (key string, ok bool) {
	var req HardenRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", false
	}
	if err := req.canonicalizeKeyFields(); err != nil {
		return "", false
	}
	return req.CacheKey(), true
}
