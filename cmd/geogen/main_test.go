package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geosocial/internal/trace"
)

func TestRunGeneratesBothDatasets(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-scale", "0.02", "-seed", "7", "-out", dir, "-workers", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"primary.json.gz", "baseline.json.gz"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("expected %s: %v", name, err)
		}
	}
	got := out.String()
	if !strings.Contains(got, "primary:") || !strings.Contains(got, "baseline:") {
		t.Errorf("report missing dataset lines:\n%s", got)
	}
}

func TestRunSingleDatasetUncompressed(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-scale", "0.02", "-out", dir, "-dataset", "primary", "-gz=false"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "primary.json")); err != nil {
		t.Errorf("expected primary.json: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "baseline.json")); err == nil {
		t.Error("baseline.json written despite -dataset primary")
	}
}

func TestRunRejectsUnknownDataset(t *testing.T) {
	if err := run([]string{"-out", t.TempDir(), "-dataset", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("expected error for unknown -dataset")
	}
}

func TestRunBinaryFormat(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-scale", "0.02", "-seed", "7", "-out", dir, "-dataset", "primary", "-format", "binary"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "primary.bin.gz")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("expected primary.bin.gz: %v", err)
	}
	st, err := trace.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if st.Format != trace.FormatBinary {
		t.Fatalf("detected %v, want binary", st.Format)
	}
	// The binary file decodes to the same dataset the JSON path writes
	// (modulo E7 coordinate quantization, checked via user/checkin
	// counts).
	fromBin, err := trace.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	jsonDir := t.TempDir()
	if err := run([]string{"-scale", "0.02", "-seed", "7", "-out", jsonDir, "-dataset", "primary"}, &out); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := trace.LoadFile(filepath.Join(jsonDir, "primary.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromBin.Users) != len(fromJSON.Users) {
		t.Fatalf("binary has %d users, JSON %d", len(fromBin.Users), len(fromJSON.Users))
	}
	for i, u := range fromBin.Users {
		if len(u.Checkins) != len(fromJSON.Users[i].Checkins) || len(u.GPS) != len(fromJSON.Users[i].GPS) {
			t.Fatalf("user %d traces differ between formats", i)
		}
	}
	// Binary output is the smaller encoding even under gzip.
	binInfo, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	jsonInfo, err := os.Stat(filepath.Join(jsonDir, "primary.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if binInfo.Size() >= jsonInfo.Size() {
		t.Errorf("binary file %d bytes, JSON %d bytes", binInfo.Size(), jsonInfo.Size())
	}
}

func TestRunRejectsUnknownFormat(t *testing.T) {
	if err := run([]string{"-out", t.TempDir(), "-format", "xml"}, &bytes.Buffer{}); err == nil {
		t.Fatal("expected error for unknown -format")
	}
}

func TestRunShardedCorpus(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-scale", "0.02", "-seed", "7", "-out", dir,
		"-dataset", "primary", "-format", "binary", "-shards", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "primary"+trace.ManifestSuffix)
	ss, err := trace.OpenShardSet(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Manifest.Shards) != 3 {
		t.Fatalf("manifest lists %d shards, want 3", len(ss.Manifest.Shards))
	}
	for _, info := range ss.Manifest.Shards {
		if !strings.HasSuffix(info.File, ".bin.gz") { // -gz defaults on
			t.Errorf("shard file %q not gzip binary", info.File)
		}
		if _, err := os.Stat(filepath.Join(dir, info.File)); err != nil {
			t.Errorf("shard file missing: %v", err)
		}
	}
	if !strings.Contains(out.String(), "3 shards") || !strings.Contains(out.String(), manifest) {
		t.Errorf("report does not mention the shard set:\n%s", out.String())
	}
	// The sharded corpus holds the same users as the single-file output
	// of the same seed.
	single := t.TempDir()
	if err := run([]string{"-scale", "0.02", "-seed", "7", "-out", single,
		"-dataset", "primary", "-format", "binary"}, &out); err != nil {
		t.Fatal(err)
	}
	ds, err := trace.LoadFile(filepath.Join(single, "primary.bin.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if ss.Manifest.Users != len(ds.Users) {
		t.Errorf("shard set has %d users, single file %d", ss.Manifest.Users, len(ds.Users))
	}
}

func TestRunShardsRequireBinaryFormat(t *testing.T) {
	if err := run([]string{"-out", t.TempDir(), "-shards", "2"}, &bytes.Buffer{}); err == nil {
		t.Fatal("sharded JSON output accepted")
	}
	if err := run([]string{"-out", t.TempDir(), "-format", "binary", "-shards", "-1"}, &bytes.Buffer{}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}
