package atomicfile

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

var (
	errInjected = errors.New("injected failure")
	errAny      = errors.New("any error")
)

func fail(*os.File) error            { return errInjected }
func failPaths(string, string) error { return errInjected }

// TestCommitFailures drives every failure Commit and CommitNew can meet
// through the sys seam: the target must keep its old bytes (or hold the
// new ones when only the directory fsync failed), no temp may be left,
// and the error must reach the caller.
func TestCommitFailures(t *testing.T) {
	cases := []struct {
		name   string
		old    bool // the target exists before the commit
		inject func()
		op     func(f *File, path string) error
		want   string // target content afterwards; "" = absent
		errIs  error
	}{
		{"commit", true, nil, (*File).Commit, "new", nil},
		{"commit-new", false, nil, (*File).CommitNew, "new", nil},
		{"sync", true, func() { sys.sync = fail }, (*File).Commit, "old", errInjected},
		{"close", true, func() { sys.close = fail }, (*File).Commit, "old", errInjected},
		{"rename", true, func() { sys.rename = failPaths }, (*File).Commit, "old", errInjected},
		{"dir-sync", true, func() { sys.syncDir = func(string) error { return errInjected } }, (*File).Commit, "new", errInjected},
		{"link-exists", true, nil, (*File).CommitNew, "old", os.ErrExist},
		{"link-other", false, func() {
			sys.link = func(string, string) error { return &os.LinkError{Op: "link", Err: syscall.EXDEV} }
		}, (*File).CommitNew, "", syscall.EXDEV},
		{"link-sync", false, func() { sys.sync = fail }, (*File).CommitNew, "", errInjected},
		{"link-dir-sync", false, func() { sys.syncDir = func(string) error { return errInjected } }, (*File).CommitNew, "new", errInjected},
		{"outside-dir", false, nil, func(f *File, path string) error {
			return f.Commit(filepath.Join(filepath.Dir(path), "sub", "target"))
		}, "", errAny},
		{"abort-after-failed-write", true, nil, func(f *File, path string) error {
			f.f.Close() // the next write fails like a full disk would
			_, err := f.Write([]byte("more"))
			f.Abort()
			return err
		}, "old", os.ErrClosed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			saved := sys
			t.Cleanup(func() { sys = saved })
			dir := t.TempDir()
			path := filepath.Join(dir, "target")
			if c.old {
				if err := os.WriteFile(path, []byte("old"), 0o666); err != nil {
					t.Fatal(err)
				}
			}
			f, err := Create(dir, 0o666)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("new")); err != nil {
				t.Fatal(err)
			}
			if c.inject != nil {
				c.inject()
			}
			err = c.op(f, path)
			switch {
			case c.errIs == nil && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case c.errIs != nil && err == nil:
				t.Fatal("error not returned")
			case c.errIs != nil && c.errIs != errAny && !errors.Is(err, c.errIs):
				t.Fatalf("error %v, want %v", err, c.errIs)
			}
			// ErrSyncDir tells a caller the new bytes were placed.
			if placed := err != nil && c.want == "new"; errors.Is(err, ErrSyncDir) != placed {
				t.Fatalf("error %v: matches ErrSyncDir %v, want %v", err, !placed, placed)
			}
			got, rerr := os.ReadFile(path)
			switch {
			case c.want == "" && !os.IsNotExist(rerr):
				t.Fatalf("target exists (%q, %v), want absent", got, rerr)
			case c.want != "" && string(got) != c.want:
				t.Fatalf("target holds %q (%v), want %q", got, rerr, c.want)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if IsTemp(e.Name()) {
					t.Fatalf("temp %s left behind", e.Name())
				}
			}
			f.Abort() // a no-op once committed or aborted
			if _, err := os.ReadFile(path); c.want != "" && err != nil {
				t.Fatalf("Abort after commit removed the target: %v", err)
			}
			if err := f.Commit(path); err == nil {
				t.Fatal("second commit succeeded")
			}
		})
	}
}

// Create names temps ".tmp-<pid>-<n>", never reuses a name a dead
// process left behind, and keeps the caller's permission bits through
// the commit.
func TestCreateNamesAndPerm(t *testing.T) {
	dir := t.TempDir()
	next := filepath.Join(dir, fmt.Sprintf(".tmp-%d-%d", pid, seq.Load()+1))
	if err := os.WriteFile(next, []byte("leftover"), 0o666); err != nil {
		t.Fatal(err)
	}
	f, err := Create(dir, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(f.f.Name())
	if want := fmt.Sprintf(".tmp-%d-%d", pid, seq.Load()); name != want || !IsTemp(name) {
		t.Fatalf("temp named %q, want %q", name, want)
	}
	if got, _ := os.ReadFile(next); string(got) != "leftover" {
		t.Fatal("Create overwrote an existing temp")
	}
	path := filepath.Join(dir, "target")
	if err := f.Commit(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o600 {
		t.Fatalf("published with mode %o, want 600", perm)
	}
	if IsTemp("target") || IsTemp("x.tmp-1-2") {
		t.Fatal("IsTemp matched a published name")
	}
}

// SweepStale removes only temps older than its age, keeping a live
// writer's fresh temp and every published file whatever its age; age 0
// takes every temp.
func TestSweepStale(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-2 * time.Hour)
	for _, name := range []string{".tmp-1-1", ".tmp-1-2", "published"} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, nil, 0o666); err != nil {
			t.Fatal(err)
		}
		if name != ".tmp-1-2" {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
		}
	}
	left := func() (names []string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	if err := SweepStale(dir, time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(left()); got != "[.tmp-1-2 published]" {
		t.Fatalf("after an hour's sweep: %s", got)
	}
	if err := SweepStale(dir, 0); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(left()); got != "[published]" {
		t.Fatalf("after a sweep of any age: %s", got)
	}
	if err := SweepStale(filepath.Join(dir, "missing"), 0); err == nil {
		t.Fatal("sweeping a missing directory succeeded")
	}
}
