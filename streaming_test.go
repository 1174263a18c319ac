package geosocial

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"geosocial/internal/poi"
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

	// A broken POI table fails in the reader, before any user is
	// validated, with the reader's error text for either encoding.
	dir := t.TempDir()
	hdr := []byte("GSB1\x01\x03bad\x01\x01p") // magic, version, name, one POI named "p"
	hdr = binary.AppendVarint(hdr, 99)        // category 99 does not exist
	hdr = append(hdr, make([]byte, 2+8)...)   // lat, lon, popularity
	bin := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bin, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(trace.Dataset{Name: "bad", POIs: []poi.POI{{ID: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	js := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(js, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		bin: "geosocial: trace: invalid POI table: poi: POI 0 has invalid category 99",
		js:  "geosocial: trace: invalid dataset: poi: POI at index 0 has ID 3 (must equal index)",
	} {
		if _, err := ValidateFileOpts(path, StreamOptions{}); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", filepath.Base(path), err, want)
		}
	}
}
