package serve

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// mustCache builds a memory-only cache (the disk tier has its own
// tests).
func mustCache(t *testing.T, capacity int) *resultCache {
	t.Helper()
	c, err := newResultCache(capacity, "")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestResultCacheEvictsLRU(t *testing.T) {
	c := mustCache(t, 2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a: b is now oldest
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := c.Get(key); !ok {
			t.Fatalf("%s should survive", key)
		}
	}
}

func TestResultCachePutRefreshes(t *testing.T) {
	c := mustCache(t, 2)
	c.Put("a", []byte("A1"))
	c.Put("b", []byte("B"))
	c.Put("a", []byte("A2")) // refresh value and recency
	c.Put("c", []byte("C"))  // evicts b, not a
	if v, ok := c.Get("a"); !ok || !bytes.Equal(v, []byte("A2")) {
		t.Fatalf("a = %q, %v", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
}

func TestResultCacheStats(t *testing.T) {
	c := mustCache(t, 0) // normalized to 1
	c.Put("a", []byte("A"))
	c.Get("a")
	c.Get("nope")
	memHits, diskHits, misses, entries, capacity := c.Stats()
	if memHits != 1 || diskHits != 0 || misses != 1 || entries != 1 || capacity != 1 {
		t.Fatalf("stats = %d/%d/%d/%d/%d", memHits, diskHits, misses, entries, capacity)
	}
}

// TestResultCacheTierHitIndependence pins the per-tier hit split: a
// memory hit moves only the memory counter, a disk promotion only the
// disk counter, and a full miss only the miss counter — the three are
// independent, so /metrics can attribute cache traffic to the tier
// that actually served it.
func TestResultCacheTierHitIndependence(t *testing.T) {
	c, err := newResultCache(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B")) // evicts a from memory; both persist on disk
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b missing") // memory hit
	}
	if mem, disk, miss, _, _ := c.Stats(); mem != 1 || disk != 0 || miss != 0 {
		t.Fatalf("after memory hit: %d/%d/%d", mem, disk, miss)
	}
	if v, ok := c.Get("a"); !ok || !bytes.Equal(v, []byte("A")) {
		t.Fatalf("a = %q, %v", v, ok) // disk promotion
	}
	if mem, disk, miss, _, _ := c.Stats(); mem != 1 || disk != 1 || miss != 0 {
		t.Fatalf("after disk promotion: %d/%d/%d", mem, disk, miss)
	}
	if _, ok := c.Get("nope"); ok {
		t.Fatal("phantom entry")
	}
	if mem, disk, miss, _, _ := c.Stats(); mem != 1 || disk != 1 || miss != 1 {
		t.Fatalf("after miss: %d/%d/%d", mem, disk, miss)
	}
}

func TestResultCacheManyKeys(t *testing.T) {
	c := mustCache(t, 8)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%03d", i), []byte{byte(i)})
	}
	_, _, _, entries, _ := c.Stats()
	if entries != 8 {
		t.Fatalf("entries = %d, want 8", entries)
	}
	// Exactly the last 8 inserted survive.
	for i := 92; i < 100; i++ {
		if v, ok := c.Get(fmt.Sprintf("k%03d", i)); !ok || v[0] != byte(i) {
			t.Fatalf("k%03d missing or wrong", i)
		}
	}
}

// A directory at an entry's disk path obstructs its publish: Put
// surfaces nothing, the memory tier still serves the entry, and no temp
// is left in the disk tier.
func TestResultCachePutObstructed(t *testing.T) {
	dir := t.TempDir()
	c, err := newResultCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(c.entryPath("a"), 0o755); err != nil {
		t.Fatal(err)
	}
	c.Put("a", []byte("A"))
	if v, ok := c.Get("a"); !ok || !bytes.Equal(v, []byte("A")) {
		t.Fatalf("a = %q, %v", v, ok)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() {
		t.Fatalf("failed Put left %v, want only the obstructing directory", entries)
	}
}
