package server

import (
	"fmt"
	"testing"
)

func TestCacheGetPutRoundTrip(t *testing.T) {
	c := newResultCache(1 << 20)
	if _, ok := c.Get("absent"); ok {
		t.Fatal("Get on empty cache reported a hit")
	}
	c.Put("k", []byte("curve-bytes"))
	got, ok := c.Get("k")
	if !ok || string(got) != "curve-bytes" {
		t.Fatalf("Get = %q, %t; want curve-bytes, true", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("HitRate = %g, want 0.5", st.HitRate())
	}
}

func TestCacheUpdateInPlace(t *testing.T) {
	c := newResultCache(1 << 20)
	c.Put("k", []byte("old"))
	before := c.Bytes()
	c.Put("k", []byte("newer-and-longer"))
	if got, _ := c.Get("k"); string(got) != "newer-and-longer" {
		t.Fatalf("Get after update = %q", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	wantDelta := int64(len("newer-and-longer") - len("old"))
	if c.Bytes()-before != wantDelta {
		t.Errorf("Bytes grew by %d, want %d", c.Bytes()-before, wantDelta)
	}
}

// TestCacheEvictsLRU pins the recency order: filling one shard past
// budget evicts the least-recently-touched entry first.
func TestCacheEvictsLRU(t *testing.T) {
	c := newResultCache(16 * 1024)
	payload := make([]byte, 200)
	// Pin shard 0's budget to exactly three entries, then exercise it
	// through the public surface with keys that hash to shard 0.
	c.shards[0].budget = 3 * c.entryCost("k-000", payload)
	shard0 := func(prefix string) []string {
		var keys []string
		for i := 0; len(keys) < 4; i++ {
			k := fmt.Sprintf("%s-%03d", prefix, i)
			if c.shard(k) == &c.shards[0] {
				keys = append(keys, k)
			}
		}
		return keys
	}
	keys := shard0("k")
	for _, k := range keys[:3] {
		c.Put(k, payload)
	}
	c.Get(keys[0]) // refresh: keys[1] is now LRU
	c.Put(keys[3], payload)

	if _, ok := c.Get(keys[1]); ok {
		t.Error("LRU entry survived eviction")
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %s was evicted, want kept", k)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestCacheRejectsOversizeValue(t *testing.T) {
	c := newResultCache(16 * 1024) // shard budget 1024
	huge := make([]byte, 4096)
	c.Put("huge", huge)
	if _, ok := c.Get("huge"); ok {
		t.Error("oversize value was cached")
	}
	if c.Stats().Rejected != 1 {
		t.Errorf("rejected = %d, want 1", c.Stats().Rejected)
	}
	if c.Bytes() != 0 {
		t.Errorf("Bytes = %d after rejected Put, want 0", c.Bytes())
	}
}

func TestCacheZeroBudgetDisables(t *testing.T) {
	c := newResultCache(-1)
	c.Put("k", []byte("v"))
	if _, ok := c.Get("k"); ok {
		t.Error("disabled cache served a hit")
	}
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Errorf("disabled cache holds %d bytes / %d entries", c.Bytes(), c.Len())
	}
}

func TestCacheBudgetInvariantSequential(t *testing.T) {
	const budget = 64 * 1024
	c := newResultCache(budget)
	val := make([]byte, 300)
	for i := 0; i < 4_000; i++ {
		c.Put(fmt.Sprintf("key-%d", i), val)
		if b := c.Bytes(); b > budget {
			t.Fatalf("after %d puts cache holds %d bytes, budget %d", i+1, b, budget)
		}
	}
	if c.Stats().Evictions == 0 {
		t.Error("stress never evicted; budget too large for the test to mean anything")
	}
}
