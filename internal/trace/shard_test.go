package trace_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

// genShardDS generates a small dataset already on the binary codec's E7
// coordinate grid, so shard round trips compare exactly.
func genShardDS(t *testing.T, scale float64, seed uint64) *trace.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(scale), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	onGrid, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return onGrid
}

// readShardSet opens every shard of a set and decodes all users through
// the serial UserSource path, returning them keyed by ID along with the
// per-shard counts.
func readShardSet(t *testing.T, path string) (map[int]*trace.User, []int) {
	t.Helper()
	ss, err := trace.OpenShardSet(path)
	if err != nil {
		t.Fatal(err)
	}
	users := make(map[int]*trace.User)
	counts := make([]int, len(ss.Manifest.Shards))
	for i := range ss.Manifest.Shards {
		r, err := ss.OpenShard(i)
		if err != nil {
			t.Fatal(err)
		}
		for {
			u, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := users[u.ID]; dup {
				t.Fatalf("user %d appears in more than one shard", u.ID)
			}
			users[u.ID] = u
			counts[i]++
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return users, counts
}

// TestShardRoundTrip writes a corpus at several shard counts (compressed
// and not) and checks that the union of the shards is exactly the
// original dataset and the manifest arithmetic holds.
func TestShardRoundTrip(t *testing.T) {
	ds := genShardDS(t, 0.05, 11)
	for _, tc := range []struct {
		shards   int
		compress bool
	}{
		{1, false}, {3, false}, {8, true},
	} {
		dir := t.TempDir()
		manifest, err := ds.SaveShards(dir, trace.ShardOptions{Shards: tc.shards, Compress: tc.compress})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := trace.OpenShardSet(manifest)
		if err != nil {
			t.Fatal(err)
		}
		m := ss.Manifest
		if m.Name != ds.Name || m.Users != len(ds.Users) || len(m.Shards) != tc.shards {
			t.Fatalf("shards=%d: manifest %+v does not describe the dataset", tc.shards, m)
		}
		if want := trace.POIChecksum(ds.POIs); m.POIChecksum != want {
			t.Fatalf("shards=%d: manifest checksum %s, want %s", tc.shards, m.POIChecksum, want)
		}
		users, counts := readShardSet(t, manifest)
		if len(users) != len(ds.Users) {
			t.Fatalf("shards=%d: decoded %d users, want %d", tc.shards, len(users), len(ds.Users))
		}
		for _, want := range ds.Users {
			got, ok := users[want.ID]
			if !ok {
				t.Fatalf("shards=%d: user %d missing from shard set", tc.shards, want.ID)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d: user %d differs after shard round trip", tc.shards, want.ID)
			}
		}
		// Size balancing spreads the first users across all shards, so
		// every shard is populated whenever there are enough users, and
		// the per-shard counts match the manifest.
		for i, n := range counts {
			if n != m.Shards[i].Users {
				t.Fatalf("shards=%d: shard %d decoded %d users, manifest says %d", tc.shards, i, n, m.Shards[i].Users)
			}
			if len(ds.Users) >= tc.shards && n == 0 {
				t.Fatalf("shards=%d: shard %d is empty with %d users available", tc.shards, i, len(ds.Users))
			}
		}
	}
}

// TestShardWriterDeterministic pins the writer's assignment: two writes
// of the same dataset produce byte-identical shard files and manifests.
func TestShardWriterDeterministic(t *testing.T) {
	ds := genShardDS(t, 0.03, 5)
	read := func(dir string) map[string][]byte {
		t.Helper()
		if _, err := ds.SaveShards(dir, trace.ShardOptions{Shards: 3}); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte)
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = raw
		}
		return out
	}
	a, b := read(t.TempDir()), read(t.TempDir())
	if len(a) != 4 { // 3 shards + manifest
		t.Fatalf("wrote %d files, want 4", len(a))
	}
	for name, raw := range a {
		if !bytes.Equal(raw, b[name]) {
			t.Errorf("%s differs between two identical writes", name)
		}
	}
}

// gunzip returns the decompressed bytes of a gzip file.
func gunzip(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return raw
}

// readFile returns a file's bytes.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCompressedShardsMatchPlain pins the gzip write path to the plain
// one: whatever the shard count and however many cores the compressors
// get, every gzip shard decompresses to the plain shard's bytes, the
// manifests differ only in the ".gz" of the file names, and two writes
// produce the same gzip bytes. The other GSB1 gzip writers, SaveFile
// and an append delta, decompress to their plain counterparts too.
func TestCompressedShardsMatchPlain(t *testing.T) {
	ds := genShardDS(t, 0.05, 11) // 2-3 StreamWriter flushes per shard at 8 shards
	save := func(t *testing.T, shards int, gz bool) string {
		t.Helper()
		manifest, err := ds.SaveShards(t.TempDir(), trace.ShardOptions{Shards: shards, Compress: gz})
		if err != nil {
			t.Fatal(err)
		}
		return manifest
	}
	for _, shards := range []int{1, 3, 8} {
		plain := save(t, shards, false)
		plainRaw := readFile(t, plain)
		for _, procs := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("shards=%d/procs=%d", shards, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				a, b := save(t, shards, true), save(t, shards, true)
				wantRaw := bytes.ReplaceAll(plainRaw, []byte(`.bin"`), []byte(`.bin.gz"`))
				if got := readFile(t, a); !bytes.Equal(got, wantRaw) {
					t.Fatalf("gzip manifest differs from the plain one:\n%s\nwant\n%s", got, wantRaw)
				}
				for i := 0; i < shards; i++ {
					name := fmt.Sprintf("%s-%04d.bin", ds.Name, i)
					want := readFile(t, filepath.Join(filepath.Dir(plain), name))
					if got := gunzip(t, filepath.Join(filepath.Dir(a), name+".gz")); !bytes.Equal(got, want) {
						t.Fatalf("%s.gz decompresses to %d bytes that differ from the plain shard's %d", name, len(got), len(want))
					}
					if !bytes.Equal(readFile(t, filepath.Join(filepath.Dir(a), name+".gz")), readFile(t, filepath.Join(filepath.Dir(b), name+".gz"))) {
						t.Fatalf("%s.gz differs between two writes", name)
					}
				}
			})
		}
	}

	t.Run("SaveFile", func(t *testing.T) {
		dir := t.TempDir()
		bin, gz := filepath.Join(dir, "d.bin"), filepath.Join(dir, "d.bin.gz")
		for _, path := range []string{bin, gz} {
			if err := ds.SaveFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(gunzip(t, gz), readFile(t, bin)) {
			t.Fatal("d.bin.gz does not decompress to d.bin")
		}
	})

	t.Run("append", func(t *testing.T) {
		base := *ds
		base.Users = ds.Users[:len(ds.Users)-3]
		fresh := ds.Users[len(ds.Users)-3:] // new users: the delta carries them whole
		deltaOf := func(gz bool) string {
			manifest, err := base.SaveShards(t.TempDir(), trace.ShardOptions{Shards: 2, Compress: gz})
			if err != nil {
				t.Fatal(err)
			}
			aw, err := trace.OpenAppend(manifest)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range fresh {
				if err := aw.WriteUser(u); err != nil {
					t.Fatal(err)
				}
			}
			if err := aw.Close(); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s-delta-0001.bin", ds.Name)
			if gz {
				name += ".gz"
			}
			return filepath.Join(filepath.Dir(manifest), name)
		}
		plain, gz := deltaOf(false), deltaOf(true)
		if !bytes.Equal(gunzip(t, gz), readFile(t, plain)) {
			t.Fatal("the gzip delta does not decompress to the plain delta")
		}
	})
}

// TestShardWriterRejectsCrossShardDuplicates covers the set-wide
// duplicate user ID check.
func TestShardWriterRejectsCrossShardDuplicates(t *testing.T) {
	ds := genShardDS(t, 0.02, 3)
	w, err := trace.NewShardWriter(t.TempDir(), "dup", ds.POIs, trace.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteUser(ds.Users[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteUser(ds.Users[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteUser(ds.Users[0]); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate user accepted across shards: %v", err)
	}
}

// leftovers lists the regular files left in dir (obstruction
// directories planted by the test are skipped).
func leftovers(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestShardWriterCloseFailureLeavesNoOrphans forces Close to fail at
// two points past the first rename — a later shard's rename and the
// manifest publish — by planting a directory at the target path
// (rename over a directory fails). In both cases every already-renamed
// final file must be removed along with the temps: without a manifest
// those finals are unreachable orphans that poison directory-based
// OpenShardSet and leak disk forever.
func TestShardWriterCloseFailureLeavesNoOrphans(t *testing.T) {
	ds := genShardDS(t, 0.02, 5)
	write := func(t *testing.T, dir string) *trace.ShardWriter {
		t.Helper()
		w, err := trace.NewShardWriter(dir, "orphan", ds.POIs, trace.ShardOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ds.Users {
			if err := w.WriteUser(u); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}

	t.Run("mid-rename", func(t *testing.T) {
		dir := t.TempDir()
		w := write(t, dir)
		// Shard 0 renames fine; shard 1's target is obstructed.
		if err := os.Mkdir(filepath.Join(dir, "orphan-0001.bin"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err == nil {
			t.Fatal("Close succeeded with an obstructed shard path")
		}
		if left := leftovers(t, dir); len(left) != 0 {
			t.Fatalf("failed Close left orphans: %v", left)
		}
	})

	t.Run("manifest-write", func(t *testing.T) {
		dir := t.TempDir()
		w := write(t, dir)
		// Every shard renames fine; the manifest publish is obstructed.
		if err := os.Mkdir(filepath.Join(dir, "orphan"+trace.ManifestSuffix), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err == nil {
			t.Fatal("Close succeeded with an obstructed manifest path")
		}
		if left := leftovers(t, dir); len(left) != 0 {
			t.Fatalf("failed Close left orphans: %v", left)
		}
	})
}

// TestOpenShardSetFromDirectory resolves the manifest from a directory
// and rejects ambiguous or manifest-less directories.
func TestOpenShardSetFromDirectory(t *testing.T) {
	ds := genShardDS(t, 0.02, 7)
	dir := t.TempDir()
	if _, err := ds.SaveShards(dir, trace.ShardOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	ss, err := trace.OpenShardSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Manifest.Name != ds.Name {
		t.Fatalf("resolved manifest for %q, want %q", ss.Manifest.Name, ds.Name)
	}
	if _, err := trace.OpenShardSet(t.TempDir()); err == nil {
		t.Error("directory without a manifest accepted")
	}
	// A second manifest makes the directory ambiguous.
	second := filepath.Join(dir, "other"+trace.ManifestSuffix)
	if err := os.WriteFile(second, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.OpenShardSet(dir); err == nil {
		t.Error("directory with two manifests accepted")
	}
}

// mutateManifest loads, edits and rewrites a manifest document.
func mutateManifest(t *testing.T, path string, edit func(m *trace.Manifest)) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m trace.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	edit(&m)
	out, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShardSetRejectsInconsistencies covers manifest-vs-shard mismatch
// and corruption: missing shard files, tampered checksums and names,
// wrong user counts, and corrupt shard bytes.
func TestShardSetRejectsInconsistencies(t *testing.T) {
	ds := genShardDS(t, 0.03, 9)
	newSet := func(t *testing.T) (string, *trace.ShardSet) {
		t.Helper()
		dir := t.TempDir()
		manifest, err := ds.SaveShards(dir, trace.ShardOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := trace.OpenShardSet(manifest)
		if err != nil {
			t.Fatal(err)
		}
		return manifest, ss
	}

	t.Run("missing shard file", func(t *testing.T) {
		manifest, ss := newSet(t)
		if err := os.Remove(filepath.Join(filepath.Dir(manifest), ss.Manifest.Shards[1].File)); err != nil {
			t.Fatal(err)
		}
		if _, err := ss.OpenShard(1); err == nil {
			t.Error("missing shard file accepted")
		}
	})

	t.Run("user count sum mismatch", func(t *testing.T) {
		manifest, _ := newSet(t)
		mutateManifest(t, manifest, func(m *trace.Manifest) { m.Shards[0].Users++ })
		if _, err := trace.OpenShardSet(manifest); err == nil {
			t.Error("manifest with wrong user arithmetic accepted")
		}
	})

	t.Run("per-shard count mismatch", func(t *testing.T) {
		// Consistent arithmetic, but the counts disagree with the shard
		// trailers: caught at the shard's end of stream.
		manifest, _ := newSet(t)
		mutateManifest(t, manifest, func(m *trace.Manifest) {
			m.Shards[0].Users++
			m.Shards[1].Users--
		})
		ss, err := trace.OpenShardSet(manifest)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ss.OpenShard(0)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for {
			_, err := r.Next()
			if err == io.EOF {
				t.Error("shard shorter than manifest count accepted")
				break
			}
			if err != nil {
				if !strings.Contains(err.Error(), "manifest") {
					t.Errorf("unexpected error: %v", err)
				}
				break
			}
		}
	})

	t.Run("POI checksum mismatch", func(t *testing.T) {
		manifest, _ := newSet(t)
		mutateManifest(t, manifest, func(m *trace.Manifest) { m.POIChecksum = "sha256:beef" })
		ss, err := trace.OpenShardSet(manifest)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ss.OpenShard(0); err == nil {
			t.Error("shard with mismatched POI checksum accepted")
		}
	})

	t.Run("name mismatch", func(t *testing.T) {
		manifest, _ := newSet(t)
		mutateManifest(t, manifest, func(m *trace.Manifest) { m.Name = "impostor" })
		ss, err := trace.OpenShardSet(manifest)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ss.OpenShard(0); err == nil {
			t.Error("shard with mismatched dataset name accepted")
		}
	})

	t.Run("unsafe shard path", func(t *testing.T) {
		manifest, _ := newSet(t)
		mutateManifest(t, manifest, func(m *trace.Manifest) { m.Shards[0].File = "../escape.bin" })
		if _, err := trace.OpenShardSet(manifest); err == nil {
			t.Error("manifest with path traversal accepted")
		}
	})

	t.Run("truncated shard", func(t *testing.T) {
		manifest, ss := newSet(t)
		path := filepath.Join(filepath.Dir(manifest), ss.Manifest.Shards[0].File)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := ss.OpenShard(0)
		if err != nil {
			return // caught at open: fine
		}
		defer r.Close()
		for {
			_, err := r.Next()
			if err == io.EOF {
				t.Error("truncated shard decoded cleanly")
				return
			}
			if err != nil {
				return // rejected, as it must be
			}
		}
	})

	t.Run("corrupt shard header", func(t *testing.T) {
		manifest, ss := newSet(t)
		path := filepath.Join(filepath.Dir(manifest), ss.Manifest.Shards[0].File)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[0] ^= 0xff // breaks the GSB1 magic
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ss.OpenShard(0); err == nil {
			t.Error("shard with corrupt magic accepted")
		}
	})

	t.Run("not a manifest", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "data"+trace.ManifestSuffix)
		if err := os.WriteFile(path, []byte(`{"format":"something-else"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := trace.OpenShardSet(path); err == nil {
			t.Error("non-manifest JSON accepted")
		}
	})
}

// TestSourceFrames pins the adapter: an in-memory source seen through
// SourceFrames yields the same users as direct iteration.
func TestSourceFrames(t *testing.T) {
	ds := genShardDS(t, 0.02, 13)
	fs := trace.SourceFrames(ds.Source())
	for i := 0; ; i++ {
		f, err := fs.NextFrame()
		if err == io.EOF {
			if i != len(ds.Users) {
				t.Fatalf("adapter yielded %d users, want %d", i, len(ds.Users))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		u, err := fs.DecodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if u != ds.Users[i] {
			t.Fatalf("frame %d decoded to user %d, want %d", i, u.ID, ds.Users[i].ID)
		}
	}
}

// TestStreamReaderFramePath pins the two-stage API against the serial
// Next path: NextFrame+DecodeFrame yields the same users.
func TestStreamReaderFramePath(t *testing.T) {
	ds := genShardDS(t, 0.02, 17)
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	sr, err := trace.NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		f, err := sr.NextFrame()
		if err == io.EOF {
			if i != len(ds.Users) {
				t.Fatalf("frame path yielded %d users, want %d", i, len(ds.Users))
			}
			if sr.Users() != len(ds.Users) {
				t.Fatalf("reader counts %d users, want %d", sr.Users(), len(ds.Users))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		u, err := sr.DecodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(u, ds.Users[i]) {
			t.Fatalf("frame %d decodes differently from the dataset user", i)
		}
	}
}
