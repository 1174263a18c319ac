package core_test

// Streaming contracts of the validation engine. Streaming, sharded and
// resumed validation run through one engine behind the facade
// (geosocial.ValidateFileOpts), built from this package's per-user
// building block, Validator.ValidateUserSpans. These tests pin that
// engine against the serial reference ValidateDataset: same partition,
// same per-user outcomes (compared through their outcome-log records),
// and the duplicate-ID and error contracts, at worker counts 1 and 8.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"geosocial"
	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/obs"
	"geosocial/internal/outcome"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

// onGrid generates a dataset and round-trips it through the binary
// codec so its coordinates sit on the E7 grid — binary files and shards
// then decode to exactly these users.
func onGrid(t *testing.T, scale float64, seed uint64) *trace.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(scale), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// saveBinary writes the dataset as one uncompressed binary file.
func saveBinary(t *testing.T, ds *trace.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// splitUsers deals the dataset's users round-robin into n parts.
func splitUsers(ds *trace.Dataset, n int) []*trace.Dataset {
	out := make([]*trace.Dataset, n)
	for i := range out {
		out[i] = &trace.Dataset{Name: ds.Name, POIs: ds.POIs}
	}
	for i, u := range ds.Users {
		out[i%n].Users = append(out[i%n].Users, u)
	}
	return out
}

// writeShardSet builds a shard set by hand: each part becomes one
// uncompressed binary shard file, listed in a manifest in part order.
// Unlike trace.ShardWriter it accepts any split — including parts that
// share user IDs, which the writer would refuse.
func writeShardSet(t *testing.T, dir string, parts []*trace.Dataset) string {
	t.Helper()
	m := trace.Manifest{
		Format:      "gsb1-shards",
		Version:     1,
		Name:        parts[0].Name,
		POIChecksum: trace.POIChecksum(parts[0].POIs),
	}
	for i, part := range parts {
		var buf bytes.Buffer
		if err := part.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		file := fmt.Sprintf("%s-%04d.bin", part.Name, i)
		if err := os.WriteFile(filepath.Join(dir, file), buf.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
		m.Shards = append(m.Shards, trace.ShardInfo{File: file, Users: len(part.Users), Bytes: int64(buf.Len())})
		m.Users += len(part.Users)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, parts[0].Name+trace.ManifestSuffix)
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// referenceLog writes the serial references' outcome log for ds:
// ValidateDataset, ClassifyAll, one record per user.
func referenceLog(t *testing.T, ds *trace.Dataset) ([]byte, core.Partition) {
	t.Helper()
	outs, part, err := core.NewValidator().ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := classify.ClassifyAll(outs, classify.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.gso")
	w, err := outcome.Create(path, ds.Name)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		rec, err := outcome.NewRecord(outs[i], cls[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, part
}

// TestValidateStreamMatchesDataset pins the streaming path to the
// in-memory path: for the same users, a streamed file yields the
// partition ValidateDataset produces and an outcome log byte-identical
// to one built from ValidateDataset's outcomes, at worker counts 1
// and 8.
func TestValidateStreamMatchesDataset(t *testing.T) {
	for _, c := range []struct {
		seed  uint64
		scale float64
	}{
		{3, 0.03},
		{42, 0.05},
	} {
		t.Run(fmt.Sprintf("seed=%d/scale=%g", c.seed, c.scale), func(t *testing.T) {
			ds := onGrid(t, c.scale, c.seed)
			wantLog, wantPart := referenceLog(t, ds)
			path := saveBinary(t, ds)
			for _, workers := range []int{1, 8} {
				logPath := filepath.Join(t.TempDir(), "got.gso")
				res, err := geosocial.ValidateFileOpts(path, geosocial.StreamOptions{Workers: workers, OutcomeLog: logPath})
				if err != nil {
					t.Fatal(err)
				}
				if res.Partition != wantPart || res.Users != len(ds.Users) {
					t.Fatalf("workers=%d: %d users, partition %+v; want %d, %+v",
						workers, res.Users, res.Partition, len(ds.Users), wantPart)
				}
				got, err := os.ReadFile(logPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantLog) {
					t.Fatalf("workers=%d: outcome log differs from the in-memory path", workers)
				}
			}
		})
	}
}

// TestValidateStreamNilSink allows aggregate-only consumers: a run
// without an outcome log still yields the in-memory partition.
func TestValidateStreamNilSink(t *testing.T) {
	ds := onGrid(t, 0.02, 9)
	_, wantPart, err := core.NewValidator().ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := geosocial.ValidateFileOpts(saveBinary(t, ds), geosocial.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition != wantPart {
		t.Fatalf("partition %+v, want %+v", res.Partition, wantPart)
	}
}

// TestValidateStreamErrors covers the two failure directions: a failing
// source (a stream truncated mid-frame) and a failing per-user pipeline
// (invalid params), at both worker counts.
func TestValidateStreamErrors(t *testing.T) {
	ds := onGrid(t, 0.02, 4)
	path := saveBinary(t, ds)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "cut.bin")
	if err := os.WriteFile(truncated, data[:len(data)*2/3], 0o666); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		if _, err := geosocial.ValidateFileOpts(truncated, geosocial.StreamOptions{Workers: workers}); err == nil {
			t.Errorf("workers=%d: truncated stream accepted", workers)
		}
		bad := geosocial.StreamOptions{Workers: workers, Params: core.Params{Alpha: -1, Beta: time.Minute}}
		if _, err := geosocial.ValidateFileOpts(path, bad); err == nil {
			t.Errorf("workers=%d: invalid params accepted", workers)
		}
	}
}

// TestValidateStreamSinkError stops the run at the first accounting
// failure — a user ID repeated across shards — and publishes no outcome
// log.
func TestValidateStreamSinkError(t *testing.T) {
	ds := onGrid(t, 0.02, 4)
	parts := splitUsers(ds, 2)
	parts[1].Users = append(parts[1].Users, parts[0].Users[len(parts[0].Users)-1])
	for _, workers := range []int{1, 8} {
		manifest := writeShardSet(t, t.TempDir(), parts)
		logPath := filepath.Join(t.TempDir(), "out.gso")
		_, err := geosocial.ValidateFileOpts(manifest, geosocial.StreamOptions{Workers: workers, OutcomeLog: logPath})
		if err == nil || !strings.Contains(err.Error(), "duplicate user ID") {
			t.Fatalf("workers=%d: duplicate accepted: %v", workers, err)
		}
		if _, err := os.Stat(logPath); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("workers=%d: failed run published an outcome log (%v)", workers, err)
		}
	}
}

// TestValidateShardsMatchesDataset is the sharded determinism contract:
// validating K binary shards concurrently yields exactly the partition
// of single-dataset validation of the same users, for shard counts
// {1, 3, 8} x worker counts {1, 8}, with per-shard stats that match
// each shard's own users.
func TestValidateShardsMatchesDataset(t *testing.T) {
	ds := onGrid(t, 0.05, 42)
	ref := core.NewValidator()
	_, wantPart, err := ref.ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 8} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				splits := splitUsers(ds, shards)
				manifest := writeShardSet(t, t.TempDir(), splits)
				res, err := geosocial.ValidateFileOpts(manifest, geosocial.StreamOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if res.Users != len(ds.Users) || res.Partition != wantPart {
					t.Fatalf("%d users, partition %+v; want %d, %+v", res.Users, res.Partition, len(ds.Users), wantPart)
				}
				for s, st := range res.Shards {
					_, want, err := ref.ValidateDataset(splits[s])
					if err != nil {
						t.Fatal(err)
					}
					if st.Users != len(splits[s].Users) || st.Partition != want {
						t.Fatalf("shard %d: %d users, partition %+v; want %d, %+v",
							s, st.Users, st.Partition, len(splits[s].Users), want)
					}
				}
			})
		}
	}
}

// TestValidateShardsRejectsCrossShardDuplicates covers the set-wide
// duplicate user ID check the per-shard readers cannot perform: two
// live shards of a hand-built manifest carry the same users.
func TestValidateShardsRejectsCrossShardDuplicates(t *testing.T) {
	ds := onGrid(t, 0.02, 7)
	for _, workers := range []int{1, 8} {
		manifest := writeShardSet(t, t.TempDir(), []*trace.Dataset{ds, ds})
		_, err := geosocial.ValidateFileOpts(manifest, geosocial.StreamOptions{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "duplicate user ID") {
			t.Fatalf("workers=%d: duplicate users accepted: %v", workers, err)
		}
	}
}

// TestResumeShards covers checkpoint resume through the engine:
// checkpointed shards are never streamed and the resumed result equals
// a full run, and a live shard whose user collides with a checkpointed
// shard's ID is still rejected, exactly as an uninterrupted run rejects
// the duplicate.
func TestResumeShards(t *testing.T) {
	ds := onGrid(t, 0.05, 42)
	splits := splitUsers(ds, 3)
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		manifest := writeShardSet(t, dir, splits)
		full, err := geosocial.ValidateFileOpts(manifest, geosocial.StreamOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ckDir := t.TempDir()
		opts := geosocial.StreamOptions{Workers: workers, CheckpointDir: ckDir}
		if _, err := geosocial.ValidateFileOpts(manifest, opts); err != nil {
			t.Fatal(err)
		}

		// Every shard is checkpointed now: the rerun streams none.
		opts.Spans = obs.NewCollector()
		resumed, err := geosocial.ValidateFileOpts(manifest, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		a, err := resumed.Encode()
		if err != nil {
			t.Fatal(err)
		}
		b, err := full.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("workers=%d: resumed result differs from a full run", workers)
		}
		for _, sp := range opts.Spans.Snapshot() {
			if sp.Stage == "decode" {
				t.Fatalf("workers=%d: checkpointed shard %s was streamed", workers, sp.Shard)
			}
		}

		// Rewrite the last shard so one of its users takes the ID of a
		// user of the (checkpointed) first shard. The manifest is
		// unchanged, so the first two shards still hit their fragments
		// and only the rewritten shard streams.
		last := &trace.Dataset{Name: ds.Name, POIs: ds.POIs}
		for _, u := range splits[2].Users {
			c := *u
			last.Users = append(last.Users, &c)
		}
		last.Users[0].ID = splits[0].Users[0].ID
		var buf bytes.Buffer
		if err := last.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-0002.bin", ds.Name)), buf.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
		opts.Spans = nil
		_, err = geosocial.ValidateFileOpts(manifest, opts)
		if err == nil || !strings.Contains(err.Error(), "duplicate user ID") {
			t.Fatalf("workers=%d: duplicate against a checkpointed shard accepted: %v", workers, err)
		}
	}
}
