package serve

import (
	"container/list"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"geosocial/internal/atomicfile"
)

// resultCache is a fixed-capacity memory LRU over encoded validation
// (and analysis) results, keyed by dataset checksum, optionally backed
// by a content-addressed disk tier. Entries are deterministic encodings
// (core.StreamResult.Encode bytes, or presentation-encoded analysis
// JSON), so a cached entry can be served or decoded without touching
// the validator, and eviction frees the full weight of the result.
//
// The disk tier, when configured, is the durable side of the cache:
// every Put also lands in dir as "<key>.json" (written atomically), and
// a Get that misses in memory falls through to the directory and
// promotes what it finds. Memory eviction never touches the files, so
// a restarted server finds its whole result history on disk — the lazy
// reload that lets it answer for bytes it validated in a previous life
// without revalidating them.
//
// The cache is safe for concurrent use. Hit/miss counters feed the
// /metrics endpoint, split by tier: a memory hit and a disk
// fall-through that succeeds are counted separately (the total hit
// count is their sum).
type resultCache struct {
	mu       sync.Mutex
	capacity int
	dir      string // disk tier, "" = memory only
	// maxDiskEntries caps the disk tier in files (oldest pruned on
	// Put); <= 0 means unbounded. diskCount approximates the current
	// file count (overwrites overcount, which only prunes early), so
	// the O(entries) directory walk runs only when the cap is actually
	// exceeded, not on every Put.
	maxDiskEntries int
	diskCount      int
	ll             *list.List // front = most recently used
	byKey          map[string]*list.Element
	// memHits counts Gets answered from the memory LRU, diskHits Gets
	// that fell through to the disk tier and promoted a file. The two
	// tiers have very different costs, so /metrics reports them
	// separately (their sum is the total hit count).
	memHits, diskHits, misses int64
}

// cacheEntry is one key/value pair on the LRU list.
type cacheEntry struct {
	key string
	val []byte
}

// newResultCache returns an empty cache holding at most capacity
// entries in memory, persisting every entry under dir when dir is
// non-empty (the directory is created). Capacity < 1 is normalized to
// 1 (a cache that can hold nothing would make every repeat request a
// recomputation).
func newResultCache(capacity int, dir string) (*resultCache, error) {
	if capacity < 1 {
		capacity = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return nil, err
		}
		// Sweep temp files a crashed predecessor left mid-write; their
		// final entries either exist (the commit happened) or will be
		// recomputed. Only this server writes here, so any age is stale.
		atomicfile.SweepStale(dir, 0)
	}
	return &resultCache{
		capacity:  capacity,
		dir:       dir,
		diskCount: countFiles(dir, ".json"),
		ll:        list.New(),
		byKey:     make(map[string]*list.Element),
	}, nil
}

// countFiles counts dir entries with the suffix (0 for empty dir).
func countFiles(dir, suffix string) int {
	if dir == "" {
		return 0
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), suffix) {
			n++
		}
	}
	return n
}

// entryPath is the disk-tier file for a key. Keys are hex checksums
// (possibly suffixed ".<kind>" for analyses), so they are safe file
// names as-is.
func (c *resultCache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached bytes for key and marks the entry most
// recently used, falling through to the disk tier on a memory miss.
// The mutex is never held across file I/O, so a slow disk read only
// delays its own caller, not every cache user. The returned slice is
// shared — callers must not mutate it.
func (c *resultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.memHits++
		c.ll.MoveToFront(el)
		val := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return val, true
	}
	c.mu.Unlock()
	if c.dir != "" {
		if data, err := os.ReadFile(c.entryPath(key)); err == nil {
			c.mu.Lock()
			c.diskHits++
			c.insertLocked(key, data)
			c.mu.Unlock()
			return data, true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Peek returns the cached bytes for key without touching the hit/miss
// counters, the LRU order, or the memory tier (a disk-tier entry is
// read but not promoted). It serves the server's internal lookups —
// the incremental-update path fetching a previous generation's result
// — so /metrics reflects only client-driven traffic. The returned
// slice is shared — callers must not mutate it.
func (c *resultCache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		val := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return val, true
	}
	c.mu.Unlock()
	if c.dir != "" {
		if data, err := os.ReadFile(c.entryPath(key)); err == nil {
			return data, true
		}
	}
	return nil, false
}

// Put inserts (or refreshes) key in memory, persists it to the disk
// tier (outside the lock), and evicts the least recently used memory
// entries beyond capacity (their disk copies stay).
func (c *resultCache) Put(key string, val []byte) {
	c.mu.Lock()
	c.insertLocked(key, val)
	c.mu.Unlock()
	if c.dir != "" {
		// Best-effort durability: the memory tier already holds the
		// entry, so a failed disk write only costs a future revalidation.
		// The write is atomic (atomicfile), so a concurrent Get of the
		// same key from disk can never observe a torn file.
		if f, err := atomicfile.Create(c.dir, 0o666); err == nil {
			if _, err := f.Write(val); err == nil {
				_ = f.Commit(c.entryPath(key))
			}
			f.Abort() // a no-op after the commit
		}
		c.mu.Lock()
		c.diskCount++
		prune := c.maxDiskEntries > 0 && c.diskCount > c.maxDiskEntries
		c.mu.Unlock()
		if prune {
			n := pruneOldest(c.dir, c.maxDiskEntries, fileWithSuffix(".json"))
			c.mu.Lock()
			c.diskCount = n
			c.mu.Unlock()
		}
	}
}

// pruneOldest bounds a persisted tier: when dir holds more than max
// entries matching keep, the oldest (by mtime) are removed whole; the
// remaining count is returned. max <= 0 disables pruning. Pruned
// entries are recomputable — cache entries revalidate from the spool,
// outcome logs regenerate on revalidation, a checkpoint run directory
// only costs its interrupted run's partial progress — so pruning trades
// recomputation for disk, never correctness.
func pruneOldest(dir string, max int, keep func(os.DirEntry) bool) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	type aged struct {
		path  string
		mtime time.Time
	}
	var found []aged
	for _, e := range entries {
		if !keep(e) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, aged{filepath.Join(dir, e.Name()), info.ModTime()})
	}
	if max <= 0 || len(found) <= max {
		return len(found)
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	removed := 0
	for _, f := range found[:len(found)-max] {
		if os.RemoveAll(f.path) == nil {
			removed++
		}
	}
	return len(found) - removed
}

// fileWithSuffix selects the regular entries whose name ends in suffix.
func fileWithSuffix(suffix string) func(os.DirEntry) bool {
	return func(e os.DirEntry) bool { return !e.IsDir() && strings.HasSuffix(e.Name(), suffix) }
}

// Delete drops key from both tiers. Consumers call it when cached
// bytes turn out corrupt (a torn disk write), so the entry never
// poisons its dataset: the next Get misses and the server recomputes
// from the spool, exactly as for an eviction.
func (c *resultCache) Delete(key string) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.Remove(el)
		delete(c.byKey, key)
	}
	c.mu.Unlock()
	if c.dir != "" {
		if os.Remove(c.entryPath(key)) == nil {
			c.mu.Lock()
			if c.diskCount > 0 {
				c.diskCount--
			}
			c.mu.Unlock()
		}
	}
}

// insertLocked adds key to the memory LRU (caller holds c.mu).
func (c *resultCache) insertLocked(key string, val []byte) {
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

// Stats returns the counters exported by /metrics. Hits are reported
// per tier; the total hit count is their sum.
func (c *resultCache) Stats() (memHits, diskHits, misses int64, entries, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memHits, c.diskHits, c.misses, c.ll.Len(), c.capacity
}
