package geosocial

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"geosocial/internal/trace"
)

// saveSingleFile writes the study's primary dataset as one binary file
// and returns the serial reference result for it.
func saveSingleFile(t *testing.T) (string, *StreamResult) {
	t.Helper()
	s := getStudy(t)
	path := filepath.Join(t.TempDir(), "primary.bin.gz")
	if err := s.Primary.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ref, err := ValidateFileOpts(path, StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return path, ref
}

// TestValidateShardSetMatchesSingleFile is the PR's acceptance
// contract: validating a sharded corpus produces a StreamResult whose
// aggregate is byte-identical to validating the equivalent single file,
// for shard counts {1, 3, 8} x worker counts {1, 8}, compressed or not.
func TestValidateShardSetMatchesSingleFile(t *testing.T) {
	_, ref := saveSingleFile(t)
	s := getStudy(t)
	for _, shards := range []int{1, 3, 8} {
		dir := t.TempDir()
		manifest, err := s.Primary.SaveShards(dir, trace.ShardOptions{
			Shards:   shards,
			Compress: shards == 3, // exercise both shard encodings
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			for _, input := range []string{manifest, dir} { // manifest path and directory form
				got, err := ValidateFileOpts(input, StreamOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Shards) != shards {
					t.Fatalf("shards=%d workers=%d: result describes %d shards", shards, workers, len(got.Shards))
				}
				perShard := 0
				for _, st := range got.Shards {
					perShard += st.Users
				}
				if perShard != got.Users {
					t.Fatalf("shards=%d workers=%d: per-shard users sum to %d, total %d", shards, workers, perShard, got.Users)
				}
				got.Shards = nil // provenance detail; the aggregate must match exactly
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("shards=%d workers=%d input=%s: result %+v, want %+v",
						shards, workers, filepath.Base(input), got, ref)
				}
			}
		}
	}
}

// TestValidateFileShardSetErrors covers facade-level rejection of
// broken shard sets: tampered manifests and missing shard files.
func TestValidateFileShardSetErrors(t *testing.T) {
	s := getStudy(t)
	newSet := func(t *testing.T) (string, trace.Manifest) {
		t.Helper()
		dir := t.TempDir()
		manifest, err := s.Primary.SaveShards(dir, trace.ShardOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(manifest)
		if err != nil {
			t.Fatal(err)
		}
		var m trace.Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return manifest, m
	}

	t.Run("missing shard", func(t *testing.T) {
		manifest, m := newSet(t)
		if err := os.Remove(filepath.Join(filepath.Dir(manifest), m.Shards[0].File)); err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateFileOpts(manifest, StreamOptions{}); err == nil {
			t.Error("shard set with missing file accepted")
		}
	})

	t.Run("tampered user count", func(t *testing.T) {
		manifest, m := newSet(t)
		m.Shards[0].Users++
		m.Shards[1].Users--
		raw, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifest, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateFileOpts(manifest, StreamOptions{}); err == nil {
			t.Error("shard set with tampered user counts accepted")
		}
	})

	t.Run("directory without manifest", func(t *testing.T) {
		if _, err := ValidateFileOpts(t.TempDir(), StreamOptions{}); err == nil {
			t.Error("manifest-less directory accepted")
		}
	})
}
