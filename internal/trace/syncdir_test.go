package trace_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"geosocial/internal/atomicfile"
	"geosocial/internal/trace"
)

// failSyncDirAt makes the nth directory fsync after a commit (1-based)
// fail, so the file that commit placed is published but not durable.
func failSyncDirAt(t *testing.T, n int) {
	t.Helper()
	calls := 0
	t.Cleanup(atomicfile.SetSyncDirForTest(func(string) error {
		if calls++; calls == n {
			return errors.New("injected directory fsync failure")
		}
		return nil
	}))
}

// noTemps fails the test if dir holds an atomicfile temp.
func noTemps(t *testing.T, dir string) {
	t.Helper()
	for _, name := range leftovers(t, dir) {
		if atomicfile.IsTemp(name) {
			t.Fatalf("temp %s left in %s", name, dir)
		}
	}
}

// A directory fsync failure after a shard's commit undoes the shards,
// as any shard failure does; after the manifest's commit it must not:
// the manifest is in place and names the shards, so the set is
// complete and readable.
func TestShardWriterSyncDirFailure(t *testing.T) {
	ds := genShardDS(t, 0.02, 5)
	save := func(t *testing.T, dir string) error {
		t.Helper()
		w, err := trace.NewShardWriter(dir, "synced", ds.POIs, trace.ShardOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ds.Users {
			if err := w.WriteUser(u); err != nil {
				t.Fatal(err)
			}
		}
		return w.Close()
	}

	t.Run("shard", func(t *testing.T) {
		dir := t.TempDir()
		failSyncDirAt(t, 1)
		if err := save(t, dir); !errors.Is(err, atomicfile.ErrSyncDir) {
			t.Fatalf("Close = %v, want ErrSyncDir", err)
		}
		if left := leftovers(t, dir); len(left) != 0 {
			t.Fatalf("failed Close left %v", left)
		}
	})

	t.Run("manifest", func(t *testing.T) {
		dir := t.TempDir()
		failSyncDirAt(t, 3) // two shards, then the manifest
		if err := save(t, dir); !errors.Is(err, atomicfile.ErrSyncDir) {
			t.Fatalf("Close = %v, want ErrSyncDir", err)
		}
		noTemps(t, dir)
		ss, err := trace.OpenShardSet(filepath.Join(dir, "synced"+trace.ManifestSuffix))
		if err != nil {
			t.Fatalf("the published set does not open: %v", err)
		}
		got := 0
		for i := range ss.Manifest.Shards {
			r, err := ss.OpenShard(i)
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			for {
				if _, err := r.Next(); err != nil {
					break
				}
				got++
			}
			r.Close()
		}
		if got != len(ds.Users) {
			t.Fatalf("set holds %d users, want %d", got, len(ds.Users))
		}
	})
}

// A directory fsync failure after the delta shard's commit removes the
// delta and leaves the set as it was, so the same generation can be
// appended again; after the manifest's commit the new generation is in
// place and keeps its delta.
func TestAppendSyncDirFailure(t *testing.T) {
	full := genShardDS(t, 0.02, 23)
	base, deltas := splitDataset(full)
	setup := func(t *testing.T) (string, []byte) {
		t.Helper()
		manifest, err := base.SaveShards(t.TempDir(), trace.ShardOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(manifest)
		if err != nil {
			t.Fatal(err)
		}
		return manifest, raw
	}
	appendAll := func(t *testing.T, manifest string) error {
		t.Helper()
		aw, err := trace.OpenAppend(manifest)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range deltas {
			if err := aw.WriteUser(d); err != nil {
				t.Fatal(err)
			}
		}
		return aw.Close()
	}

	t.Run("delta", func(t *testing.T) {
		manifest, raw := setup(t)
		dir := filepath.Dir(manifest)
		before := leftovers(t, dir)
		restore := atomicfile.SetSyncDirForTest(func(string) error { return errors.New("injected") })
		err := appendAll(t, manifest)
		restore()
		if !errors.Is(err, atomicfile.ErrSyncDir) {
			t.Fatalf("Close = %v, want ErrSyncDir", err)
		}
		if after := leftovers(t, dir); len(after) != len(before) {
			t.Fatalf("failed append changed the set's files: %v, was %v", after, before)
		}
		if now, _ := os.ReadFile(manifest); !bytes.Equal(now, raw) {
			t.Fatal("failed append changed the manifest")
		}
		appendDeltas(t, manifest, deltas) // the generation is free again
	})

	t.Run("manifest", func(t *testing.T) {
		manifest, _ := setup(t)
		failSyncDirAt(t, 2) // the delta shard, then the manifest
		if err := appendAll(t, manifest); !errors.Is(err, atomicfile.ErrSyncDir) {
			t.Fatalf("Close = %v, want ErrSyncDir", err)
		}
		noTemps(t, filepath.Dir(manifest))
		ss, err := trace.OpenShardSet(manifest)
		if err != nil {
			t.Fatalf("the published set does not open: %v", err)
		}
		if ss.Manifest.Generation != 1 {
			t.Fatalf("generation %d, want 1", ss.Manifest.Generation)
		}
		dset, err := trace.MergeSets(ss, 0)
		if err != nil {
			t.Fatalf("the published delta does not load: %v", err)
		}
		if dset.Len() != len(deltas) {
			t.Fatalf("delta set has %d users, want %d", dset.Len(), len(deltas))
		}
	})
}
