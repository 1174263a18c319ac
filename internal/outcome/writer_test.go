package outcome

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"geosocial/internal/atomicfile"
)

// Two writers aimed at one path — two runs logging to the same file —
// must each publish exactly their own records: neither may share the
// other's spool or temp file. Each spools more than its 64 KiB buffer,
// so both spools reach the disk before either closes.
func TestTwoWritersOnOnePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "same.gso")
	a, err := Create(path, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Create(path, "b")
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		if err := a.Write(carriedRecord(2 * i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Write(carriedRecord(2*i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if a.off <= 1<<16 || b.off <= 1<<16 {
		t.Fatalf("spooled %d and %d bytes, want over 64 KiB each", a.off, b.off)
	}
	for first, w := range []*Writer{a, b} {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		recs := readAllRecords(t, path)
		if len(recs) != n {
			t.Fatalf("writer %d published %d records, want %d", first, len(recs), n)
		}
		for i, r := range recs {
			if want := first + 2*i; r.UserID != want {
				t.Fatalf("writer %d: record %d is user %d, want %d", first, i, r.UserID, want)
			}
		}
	}
}

// Create sweeps the temps a killed writer left beside the log once they
// are stale, and keeps a live writer's fresh temp and every other file.
func TestCreateSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-2 * atomicfile.StaleAfter)
	files := map[string]bool{".tmp-1-1": false, ".tmp-1-2": true, "old.gso": true} // name -> kept
	for name := range files {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("x"), 0o666); err != nil {
			t.Fatal(err)
		}
		if name != ".tmp-1-2" {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
		}
	}
	w, err := Create(filepath.Join(dir, "out.gso"), "sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Discard()
	for name, kept := range files {
		if _, err := os.Stat(filepath.Join(dir, name)); kept != (err == nil) {
			t.Errorf("%s: kept=%v, want %v (%v)", name, err == nil, kept, err)
		}
	}
}

// A directory at the log's path obstructs the publish: Close fails with
// its publish error, the directory stays, and no temp file is left.
func TestWriterCloseObstructed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.gso")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := Create(path, "obstructed")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(recWithID(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil || !strings.HasPrefix(err.Error(), "outcome: publish log:") {
		t.Fatalf("Close over a directory = %v, want a publish error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() {
		t.Fatalf("failed Close left %v, want only the obstructing directory", entries)
	}
}
