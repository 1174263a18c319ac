package geosocial

import (
	"path/filepath"
	"reflect"
	"testing"

	"geosocial/internal/trace"
)

// TestValidateFileStreamingMatchesInMemory is the PR's acceptance
// contract: streaming validation of a binary dataset file produces
// byte-identical Partition and Breakdown output to the in-memory path
// over the JSON encoding of the same dataset, for workers 1 and 8.
func TestValidateFileStreamingMatchesInMemory(t *testing.T) {
	s := getStudy(t)
	dir := t.TempDir()

	// One binary round trip puts the dataset on the codec's E7 coordinate
	// grid, so the JSON and binary files below hold the same values.
	binPath := filepath.Join(dir, "primary.bin.gz")
	if err := s.Primary.SaveFile(binPath); err != nil {
		t.Fatal(err)
	}
	onGrid, err := trace.LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "primary.json.gz")
	if err := onGrid.SaveFile(jsonPath); err != nil {
		t.Fatal(err)
	}

	// In-memory reference: the JSON file through the legacy path.
	fromJSON, err := LoadDataset(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ValidateDatasetWorkers(fromJSON, 1)
	if err != nil {
		t.Fatal(err)
	}
	refTruth, err := ref.TruthScore()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		for _, path := range []string{binPath, jsonPath} {
			got, err := ValidateFileOpts(path, StreamOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got.Partition != ref.Partition {
				t.Errorf("workers=%d %s: partition %+v, want %+v",
					workers, filepath.Base(path), got.Partition, ref.Partition)
			}
			if !reflect.DeepEqual(got.Taxonomy, ref.Breakdown()) {
				t.Errorf("workers=%d %s: taxonomy %v, want %v",
					workers, filepath.Base(path), got.Taxonomy, ref.Breakdown())
			}
			if got.Users != len(onGrid.Users) {
				t.Errorf("workers=%d %s: %d users, want %d",
					workers, filepath.Base(path), got.Users, len(onGrid.Users))
			}
			if got.Name != "primary" {
				t.Errorf("workers=%d %s: name %q", workers, filepath.Base(path), got.Name)
			}
			if got.Truth == nil {
				t.Errorf("workers=%d %s: no truth score for labeled data", workers, filepath.Base(path))
			} else if *got.Truth != refTruth {
				t.Errorf("workers=%d %s: truth %+v, want %+v",
					workers, filepath.Base(path), *got.Truth, refTruth)
			}
		}
	}
}

// TestValidateFileErrors covers the failure paths of the streaming entry
// point.
func TestValidateFileErrors(t *testing.T) {
	if _, err := ValidateFileOpts(filepath.Join(t.TempDir(), "missing.bin"), StreamOptions{}); err == nil {
		t.Error("missing file accepted")
	}
}
