package server

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// entryOverhead is the per-entry byte cost charged on top of key and
// value: the list element, map bucket share and entry struct. Charging
// it keeps a cache full of tiny curves from holding unbounded entry
// count on a byte budget.
const entryOverhead = 128

// cacheShards is the shard count of the result cache. Shard selection
// hashes the job key, so concurrent requests for different curves
// contend on different locks; 16 shards keeps the hot Get path from
// serialising behind one mutex at high client counts.
const cacheShards = 16

// CacheStats is a point-in-time snapshot of the result cache, served
// by /statsz.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// AliasHits counts the hits answered through the server's alias
	// table, without parsing the query; Hits counts them too.
	AliasHits uint64 `json:"alias_hits"`
	Evictions uint64 `json:"evictions"`
	Rejected  uint64 `json:"rejected"` // values too large to ever cache
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Budget    int64  `json:"budget_bytes"`
}

// HitRate returns hits/(hits+misses), 0 when idle.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// lruCache is a sharded, byte-budgeted LRU cache. The total across
// shards never exceeds the construction budget: each shard enforces
// budget/cacheShards, evicting from its own LRU tail, and a value that
// cannot fit an empty shard is rejected outright. Values are aliased,
// not copied — callers must treat returned values as read-only.
type lruCache[V any] struct {
	shards [cacheShards]cacheShard
	budget int64
	size   func(V) int64 // bytes a value holds, before entryOverhead

	hits, misses, evictions, rejected atomic.Uint64
}

type cacheShard struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recent
	items  map[string]*list.Element
}

type cacheEntry[V any] struct {
	key  string
	val  V
	cost int64
}

// newLRUCache builds a cache holding at most budget bytes across all
// shards, a value costing size(value) bytes plus its key and
// entryOverhead (budget <= 0 disables caching entirely: every Get
// misses, every Put is rejected).
func newLRUCache[V any](budget int64, size func(V) int64) *lruCache[V] {
	c := &lruCache[V]{budget: budget, size: size}
	per := budget / cacheShards
	for i := range c.shards {
		c.shards[i] = cacheShard{
			budget: per,
			ll:     list.New(),
			items:  make(map[string]*list.Element),
		}
	}
	return c
}

// newResultCache builds the result cache of encoded curves: budget
// bytes of JSON payloads.
func newResultCache(budget int64) *lruCache[[]byte] {
	return newLRUCache(budget, func(val []byte) int64 { return int64(len(val)) })
}

func (c *lruCache[V]) shard(key string) *cacheShard {
	h := fnv.New32a()
	// fnv.Write never fails.
	_, _ = h.Write([]byte(key))
	return &c.shards[h.Sum32()%cacheShards]
}

// entryCost is what an entry of key and val charges to the budget.
func (c *lruCache[V]) entryCost(key string, val V) int64 {
	return int64(len(key)) + c.size(val) + entryOverhead
}

// Get returns the cached value for key, marking it most-recently-used.
func (c *lruCache[V]) Get(key string) (V, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	var val V
	el, ok := sh.items[key]
	if ok {
		sh.ll.MoveToFront(el)
		// Read val under the lock: a concurrent Put to the same key
		// swaps the entry's value in place.
		val = el.Value.(*cacheEntry[V]).val
	}
	sh.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return val, false
	}
	c.hits.Add(1)
	return val, true
}

// Put inserts or refreshes key, evicting least-recently-used entries
// from its shard until the shard is back under budget. A value whose
// cost exceeds the shard budget is rejected (never stored), so the
// byte invariant holds unconditionally.
func (c *lruCache[V]) Put(key string, val V) {
	cost := c.entryCost(key, val)
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cost > sh.budget {
		c.rejected.Add(1)
		return
	}
	if el, ok := sh.items[key]; ok {
		ent := el.Value.(*cacheEntry[V])
		sh.bytes += cost - ent.cost
		ent.val, ent.cost = val, cost
		sh.ll.MoveToFront(el)
	} else {
		sh.items[key] = sh.ll.PushFront(&cacheEntry[V]{key: key, val: val, cost: cost})
		sh.bytes += cost
	}
	for sh.bytes > sh.budget {
		tail := sh.ll.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*cacheEntry[V])
		sh.ll.Remove(tail)
		delete(sh.items, ent.key)
		sh.bytes -= ent.cost
		c.evictions.Add(1)
	}
}

// Bytes returns the total bytes currently held across shards.
func (c *lruCache[V]) Bytes() int64 {
	var total int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.bytes
		sh.mu.Unlock()
	}
	return total
}

// Len returns the total entry count across shards.
func (c *lruCache[V]) Len() int {
	var n int
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Stats snapshots the cache counters.
func (c *lruCache[V]) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Rejected:  c.rejected.Load(),
		Entries:   c.Len(),
		Bytes:     c.Bytes(),
		Budget:    c.budget,
	}
}
