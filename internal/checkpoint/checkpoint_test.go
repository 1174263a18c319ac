package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"geosocial/internal/core"
)

func testStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, "sha256:manifest", "params-a")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func testMeta() *Meta {
	return &Meta{
		Users:     3,
		Partition: core.Partition{Checkins: 10, Visits: 7, Honest: 4, Extraneous: 6, Missing: 3},
		Taxonomy:  map[string]int{"honest": 4, "remote": 2},
		Truth:     core.TruthCounts{Labeled: 10, Agree: 8, MatchedHonest: 4, MatchedTotal: 5, HonestTotal: 6},
	}
}

func TestCommitLoadRoundTrip(t *testing.T) {
	s := testStore(t, t.TempDir())
	fr, err := s.Begin("sha256:shard0")
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	recs := [][]byte{[]byte("rec-a"), []byte("rec-b")}
	for _, r := range recs {
		if err := fr.AddRecord(r); err != nil {
			t.Fatalf("AddRecord: %v", err)
		}
	}
	ids := []int{42, 7, 19}
	if err := fr.Commit(testMeta(), ids); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// Full load replays the records and returns sorted IDs.
	var got [][]byte
	m, loaded, err := s.Load("sha256:shard0", func(data []byte) error {
		got = append(got, append([]byte(nil), data...))
		return nil
	})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if m == nil {
		t.Fatal("Load reported no checkpoint after Commit")
	}
	if m.Users != 3 || m.Records != 2 || m.Partition.Checkins != 10 || m.Taxonomy["remote"] != 2 || m.Truth.Agree != 8 {
		t.Fatalf("meta round-trip mismatch: %+v", m)
	}
	if len(loaded) != 3 || loaded[0] != 7 || loaded[1] != 19 || loaded[2] != 42 {
		t.Fatalf("user IDs = %v, want sorted [7 19 42]", loaded)
	}
	if len(got) != 2 || !bytes.Equal(got[0], recs[0]) || !bytes.Equal(got[1], recs[1]) {
		t.Fatalf("records = %q, want %q", got, recs)
	}

	// Meta-only load skips the records but still verifies IDs and meta.
	m2, loaded2, err := s.Load("sha256:shard0", nil)
	if err != nil {
		t.Fatalf("meta-only Load: %v", err)
	}
	if m2 == nil || m2.Users != 3 || len(loaded2) != 3 {
		t.Fatalf("meta-only Load = %+v ids %v", m2, loaded2)
	}
}

func TestLoadMissing(t *testing.T) {
	s := testStore(t, t.TempDir())
	m, ids, err := s.Load("sha256:absent", nil)
	if err != nil || m != nil || ids != nil {
		t.Fatalf("Load of absent fragment = %+v, %v, %v; want nil, nil, nil", m, ids, err)
	}
}

// Fragments are keyed by the full triple: a store opened with different
// parameters (or a different manifest) never sees another store's
// fragments.
func TestKeyIsolation(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir)
	fr, err := s.Begin("sha256:shard0")
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Commit(&Meta{}, nil); err != nil {
		t.Fatal(err)
	}

	other, err := Open(dir, "sha256:manifest", "params-b")
	if err != nil {
		t.Fatal(err)
	}
	if m, _, err := other.Load("sha256:shard0", nil); err != nil || m != nil {
		t.Fatalf("other-params Load = %+v, %v; want miss", m, err)
	}
	if m, _, err := s.Load("sha256:shard1", nil); err != nil || m != nil {
		t.Fatalf("other-shard Load = %+v, %v; want miss", m, err)
	}
}

// A corrupted fragment is a load error (never a silent wrong result),
// and Remove clears it so the shard revalidates.
func TestCorruptFragment(t *testing.T) {
	s := testStore(t, t.TempDir())
	fr, err := s.Begin("sha256:shard0")
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.AddRecord([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := fr.Commit(&Meta{Users: 1}, []int{5}); err != nil {
		t.Fatal(err)
	}
	path := s.fragPath("sha256:shard0")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("sha256:shard0", nil); err == nil {
		t.Fatal("truncated fragment loaded cleanly")
	}
	if err := s.Remove("sha256:shard0"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if m, _, err := s.Load("sha256:shard0", nil); err != nil || m != nil {
		t.Fatalf("Load after Remove = %+v, %v; want miss", m, err)
	}
	if err := s.Remove("sha256:shard0"); err != nil {
		t.Fatalf("Remove of missing fragment: %v", err)
	}
}

func TestAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir)
	fr, err := s.Begin("sha256:shard0")
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.AddRecord([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	fr.Abort()
	fr.Abort() // idempotent
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("Abort left %d files behind", len(entries))
	}
	if err := fr.Commit(&Meta{}, nil); err == nil {
		t.Fatal("Commit after Abort succeeded")
	}
}

// A directory at the fragment's final path obstructs the publish:
// Commit fails with its publish error, no temp is left, and Load still
// finds no checkpoint.
func TestCommitObstructed(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir)
	if err := os.Mkdir(s.fragPath("sha256:shard0"), 0o755); err != nil {
		t.Fatal(err)
	}
	fr, err := s.Begin("sha256:shard0")
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.AddRecord([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := fr.Commit(&Meta{Users: 1}, []int{1}); err == nil ||
		!strings.HasPrefix(err.Error(), "checkpoint: publish fragment:") {
		t.Fatalf("Commit over a directory = %v, want a publish error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() {
		t.Fatalf("failed Commit left %v, want only the obstructing directory", entries)
	}
}

func TestCommitRejectsIDCountMismatch(t *testing.T) {
	s := testStore(t, t.TempDir())
	fr, err := s.Begin("sha256:shard0")
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Commit(&Meta{Users: 2}, []int{1}); err == nil {
		t.Fatal("Commit accepted 1 ID for 2 users")
	}
}

// Open sweeps temp files old enough to belong to a dead run, and keeps
// fresh ones (a concurrent run's live fragment).
func TestOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".tmp-1-1")
	fresh := filepath.Join(dir, ".tmp-1-2")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * DefaultStaleAfter)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	testStore(t, dir)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp swept by Open")
	}
}

// OpenStale honours a caller-chosen sweep threshold; non-positive
// selects the default.
func TestOpenStaleCustomThreshold(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, ".tmp-1-3")
	if err := os.WriteFile(tmp, []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-10 * time.Minute)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStale(dir, "sha256:m", "p", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatal("10-minute-old temp swept under the default threshold")
	}
	if _, err := OpenStale(dir, "sha256:m", "p", 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp older than the custom threshold survived")
	}
}

func TestChecksumHelpers(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "shard.bin")
	if err := os.WriteFile(p, []byte("shard bytes"), 0o666); err != nil {
		t.Fatal(err)
	}
	sum, err := FileChecksum(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sum, "sha256:") || len(sum) != len("sha256:")+64 {
		t.Fatalf("FileChecksum = %q", sum)
	}
	sum2, err := FileChecksum(p)
	if err != nil || sum2 != sum {
		t.Fatalf("FileChecksum not stable: %q vs %q (%v)", sum, sum2, err)
	}
}

func TestIDCodec(t *testing.T) {
	cases := [][]int{nil, {0}, {-5, 3, 1000000, 7}, {1, 2, 3}}
	for _, ids := range cases {
		out, err := decodeIDs(encodeIDs(ids))
		if err != nil {
			t.Fatalf("decodeIDs(%v): %v", ids, err)
		}
		if len(out) != len(ids) {
			t.Fatalf("round trip of %v = %v", ids, out)
		}
	}
	if _, err := decodeIDs([]byte{}); err == nil {
		t.Fatal("empty ID chunk decoded")
	}
	// Trailing bytes are rejected.
	bad := append(encodeIDs([]int{1, 2}), 0x7)
	if _, err := decodeIDs(bad); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
