// Package atomicfile publishes files so that a crash leaves either the
// old file or the complete new one under the final name, never a torn
// one. Every file the system writes goes through it: datasets, shards,
// manifests, delta shards, outcome logs, checkpoint fragments, uploads
// and cache entries.
//
// A writer Creates a temporary file in the destination's directory,
// writes it, and Commits it: the file is fsynced and closed, renamed
// (or, for CommitNew, hard-linked) onto its final name, and the
// directory is fsynced, so both the bytes and the name are durable
// before Commit returns. A writer that gives up calls Abort. Temporary
// names start with ".tmp-" (IsTemp); a sweeper recognises leftovers of
// a crashed run by that rule alone.
package atomicfile

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// ErrSyncDir marks a Commit error returned after the file was placed:
// the new content is under its final name, but the directory fsync
// failed, so the name may not survive a crash. A caller must not clean
// up on it as if nothing had been published.
var ErrSyncDir = errors.New("atomicfile: sync dir")

// StaleAfter is how old a temp must be before SweepStale takes it for a
// crashed writer's leftover rather than a live write.
const StaleAfter = time.Hour

// tempPrefix starts every temporary file name: ".tmp-<pid>-<n>".
const tempPrefix = ".tmp-"

var (
	pid = os.Getpid()
	seq atomic.Uint64 // n in the temp name, unique within the process
)

// sys is every filesystem call Commit makes after the writes; tests
// replace its fields to inject failures.
var sys = struct {
	sync, close  func(*os.File) error
	rename, link func(oldpath, newpath string) error
	syncDir      func(dir string) error
}{
	sync:    (*os.File).Sync,
	close:   (*os.File).Close,
	rename:  os.Rename,
	link:    os.Link,
	syncDir: syncDir,
}

// SetSyncDirForTest makes Commit call fn in place of the directory
// fsync until restore runs, so the tests of the packages that publish
// through atomicfile can reach their handling of ErrSyncDir.
func SetSyncDirForTest(fn func(dir string) error) (restore func()) {
	saved := sys.syncDir
	sys.syncDir = fn
	return func() { sys.syncDir = saved }
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// IsTemp reports whether a directory entry name is a temporary file
// made by Create: an in-progress write, or a crashed one's leftover.
func IsTemp(name string) bool { return strings.HasPrefix(name, tempPrefix) }

// SweepStale removes the temps in dir last modified more than age ago.
// The sweep is age-based, so a concurrent writer's live temp in the same
// directory survives it. Only a failure to list dir is returned; a temp
// that cannot be removed is left for the next sweep.
func SweepStale(dir string, age time.Duration) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !IsTemp(e.Name()) {
			continue
		}
		if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > age {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// File is a temporary file that becomes a published file on Commit.
type File struct {
	f    *os.File
	dir  string
	done bool
}

// Create opens a new, exclusive temporary file in dir with permission
// bits perm (before umask), named ".tmp-<pid>-<n>".
func Create(dir string, perm os.FileMode) (*File, error) {
	dir = filepath.Clean(dir)
	for attempt := 0; ; attempt++ {
		name := filepath.Join(dir, fmt.Sprintf("%s%d-%d", tempPrefix, pid, seq.Add(1)))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, perm)
		if err == nil {
			return &File{f: f, dir: dir}, nil
		}
		// A name can only be taken by a dead process that had this pid.
		if !errors.Is(err, fs.ErrExist) || attempt >= 100 {
			return nil, err
		}
	}
}

// Write writes to the temporary file.
func (t *File) Write(p []byte) (int, error) { return t.f.Write(p) }

// ReadAt reads back from the temporary file.
func (t *File) ReadAt(p []byte, off int64) (int, error) { return t.f.ReadAt(p, off) }

// Commit publishes the file at path, replacing any file there. path
// must be in the directory the file was created in. On error the
// temporary file is removed and path holds its old content, or the new
// content when the error matches ErrSyncDir.
func (t *File) Commit(path string) error { return t.commit(path, sys.rename) }

// CommitNew is Commit for a path that must not exist yet: it links the
// file into place instead of renaming it, so it fails with an error
// matching os.ErrExist instead of replacing a file a concurrent writer
// published first.
func (t *File) CommitNew(path string) error {
	return t.commit(path, func(tmp, path string) error {
		if err := sys.link(tmp, path); err != nil {
			return err
		}
		// The link has published the bytes; a temp left by a failed
		// unlink is only litter for a sweeper.
		_ = os.Remove(tmp)
		return nil
	})
}

func (t *File) commit(path string, place func(tmp, path string) error) error {
	if t.done {
		return errors.New("atomicfile: file already committed or aborted")
	}
	if filepath.Dir(path) != t.dir {
		t.Abort()
		return fmt.Errorf("atomicfile: %s is outside %s", path, t.dir)
	}
	err := sys.sync(t.f)
	if err == nil {
		err = sys.close(t.f)
	}
	if err == nil {
		err = place(t.f.Name(), path)
	}
	if err != nil {
		t.Abort()
		return err
	}
	t.done = true
	if err := sys.syncDir(t.dir); err != nil {
		return fmt.Errorf("%w: %w", ErrSyncDir, err)
	}
	return nil
}

// Abort closes and removes the temporary file. It is a no-op after
// Commit or an earlier Abort.
func (t *File) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.f.Close()
	os.Remove(t.f.Name())
}
