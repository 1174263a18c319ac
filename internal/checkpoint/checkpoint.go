// Package checkpoint persists per-shard validation results so an
// interrupted sharded run can resume instead of restarting from zero.
//
// A Store manages one directory of GSF1 fragments (fragment.go is the
// envelope; docs/FORMAT.md documents the layout). Each fragment
// holds everything one completed shard contributed to a run: the
// outcome-log records (when the run logs outcomes), the user IDs the
// shard delivered (so a resumed run still detects cross-shard duplicate
// IDs), and the aggregate counters (partition, taxonomy, ground-truth
// counts). Fragments are keyed by the triple
//
//	(manifest checksum, shard checksum, validation-parameter fingerprint)
//
// so a checkpoint is only ever reused for byte-identical shard content
// under the same manifest and the same parameters — any of the three
// changing makes the old fragment unreachable, never wrong.
//
// Atomicity contract: a fragment is built in a temporary file and
// published by atomicfile's commit (fsync, rename, directory fsync), so
// a fragment that exists under its final name is always complete and
// durable. A crash mid-shard leaves only a temp file, which Open sweeps
// once it is stale. The GSF1 trailer makes truncation, and any byte
// after it, a decode error; callers treat a Load error as "no
// checkpoint" after Remove.
package checkpoint

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"geosocial/internal/atomicfile"
	"geosocial/internal/core"
	"geosocial/internal/trace"
	"geosocial/internal/wire"
)

// payloadVersion is the checkpoint payload schema version, stored in
// the fragment's key header (the GSF1 envelope has its own version).
const payloadVersion = "1"

// Fragment section names, in file order. Records stream to disk while
// the shard validates, so the aggregate sections land after them.
const (
	sectionRecords = "records"
	sectionUsers   = "users"
	sectionMeta    = "meta"
)

// Meta is one checkpointed shard's aggregate contribution: exactly the
// counters a resumed run must seed instead of recomputing. All fields
// are commutative sums, so merging checkpointed and freshly validated
// shards in any order reproduces the uninterrupted run's aggregates.
type Meta struct {
	// Users is the number of users the shard contributed.
	Users int `json:"users"`
	// Partition is the shard's share of the Figure 1 split.
	Partition core.Partition `json:"partition"`
	// Taxonomy holds the shard's per-kind checkin counts, keyed by
	// classify.Kind.String() (the StreamResult.Taxonomy keying).
	Taxonomy map[string]int `json:"taxonomy,omitempty"`
	// Truth is the shard's ground-truth agreement counts.
	Truth core.TruthCounts `json:"truth"`
	// Records is the number of outcome-log records in the fragment (0
	// when the run did not log outcomes).
	Records int `json:"records"`
}

// Store is a directory of checkpoint fragments for one (manifest,
// parameters) pair. Methods are safe for use from a single validation
// run; distinct runs may share the directory (fragment names embed the
// full key triple, so they never collide meaningfully).
type Store struct {
	dir         string
	manifestSum string
	paramsTag   string
}

// Open creates the checkpoint directory if missing and sweeps temp
// files left by crashed runs once they are older than
// atomicfile.StaleAfter, the age the outcome log's sweep uses too
// (age-based, so a concurrent run's live temp in the same directory is
// never swept).
func Open(dir, manifestSum, paramsTag string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	if err := atomicfile.SweepStale(dir, atomicfile.StaleAfter); err != nil {
		return nil, fmt.Errorf("checkpoint: open dir: %w", err)
	}
	return &Store{dir: dir, manifestSum: manifestSum, paramsTag: paramsTag}, nil
}

// fragPath is the final on-disk location for one shard's fragment: the
// name is a hash of the full key triple, so it is unique per (manifest,
// shard, parameters) and stable across runs.
func (s *Store) fragPath(shardSum string) string {
	h := sha256.Sum256([]byte(s.manifestSum + "\x00" + shardSum + "\x00" + s.paramsTag))
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-%x.gsf", h[:16]))
}

// keys is the fragment key header binding a fragment to its identity.
func (s *Store) keys(shardSum string) map[string]string {
	return map[string]string{
		"checkpoint": payloadVersion,
		"manifest":   s.manifestSum,
		"shard":      shardSum,
		"params":     s.paramsTag,
	}
}

// Load reads the shard's checkpoint if one exists. It returns the
// aggregate meta and the user IDs the shard contributed, or (nil, nil,
// nil) when no checkpoint is published for the key. When rec is
// non-nil it receives each outcome-log record's encoded payload in
// stored order (the slice is reused across calls — decode or copy
// before returning); a nil rec skips over the record bytes, which is
// the cheap pass skip decisions use. Any decode or consistency failure
// is an error: the caller should Remove the fragment and revalidate.
func (s *Store) Load(shardSum string, rec func(data []byte) error) (*Meta, []int, error) {
	f, err := os.Open(s.fragPath(shardSum))
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: open fragment: %w", err)
	}
	defer f.Close()
	fr, err := newFragmentReader(f)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range s.keys(shardSum) {
		if got := fr.keys[k]; got != v {
			return nil, nil, fmt.Errorf("checkpoint: fragment key %s is %q, want %q", k, got, v)
		}
	}

	records := 0
	if name, err := fr.nextSection(); err != nil || name != sectionRecords {
		return nil, nil, fmt.Errorf("checkpoint: expected %s section, got %q: %v", sectionRecords, name, err)
	}
	if rec != nil {
		for {
			data, err := fr.nextChunk()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, err
			}
			if err := rec(data); err != nil {
				return nil, nil, err
			}
			records++
		}
	}

	if name, err := fr.nextSection(); err != nil || name != sectionUsers {
		return nil, nil, fmt.Errorf("checkpoint: expected %s section, got %q: %v", sectionUsers, name, err)
	}
	chunk, err := fr.nextChunk()
	if err != nil {
		return nil, nil, err
	}
	ids, err := decodeIDs(chunk)
	if err != nil {
		return nil, nil, err
	}

	if name, err := fr.nextSection(); err != nil || name != sectionMeta {
		return nil, nil, fmt.Errorf("checkpoint: expected %s section, got %q: %v", sectionMeta, name, err)
	}
	chunk, err = fr.nextChunk()
	if err != nil {
		return nil, nil, err
	}
	var m Meta
	if err := json.Unmarshal(chunk, &m); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: decode meta: %w", err)
	}
	if _, err := fr.nextSection(); err != io.EOF {
		return nil, nil, fmt.Errorf("checkpoint: trailing fragment content: %v", err)
	}
	if len(ids) != m.Users {
		return nil, nil, fmt.Errorf("checkpoint: fragment lists %d user IDs, meta says %d users", len(ids), m.Users)
	}
	if rec != nil && records != m.Records {
		return nil, nil, fmt.Errorf("checkpoint: fragment holds %d records, meta says %d", records, m.Records)
	}
	return &m, ids, nil
}

// Remove deletes the shard's published fragment (used when Load finds
// it corrupt). Removing a missing fragment is not an error.
func (s *Store) Remove(shardSum string) error {
	err := os.Remove(s.fragPath(shardSum))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("checkpoint: remove fragment: %w", err)
	}
	return nil
}

// Frag is an in-progress checkpoint for one shard: records stream in
// via AddRecord while the shard validates, and Commit seals and
// publishes the fragment atomically. A Frag that will not be committed
// must be Aborted so its temp file is removed.
type Frag struct {
	store    *Store
	shardSum string
	f        *atomicfile.File
	fw       *fragmentWriter
	records  int
	done     bool
}

// Begin opens a new fragment for the shard and positions it to accept
// records. Records must all be added before Commit.
func (s *Store) Begin(shardSum string) (*Frag, error) {
	f, err := atomicfile.Create(s.dir, 0o600)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: begin fragment: %w", err)
	}
	fail := func(err error) (*Frag, error) {
		f.Abort()
		return nil, err
	}
	fw, err := newFragmentWriter(f, s.keys(shardSum))
	if err != nil {
		return fail(err)
	}
	if err := fw.section(sectionRecords); err != nil {
		return fail(err)
	}
	return &Frag{store: s, shardSum: shardSum, f: f, fw: fw}, nil
}

// AddRecord appends one encoded outcome-log record to the fragment.
func (fr *Frag) AddRecord(data []byte) error {
	if fr.done {
		return fmt.Errorf("checkpoint: fragment already sealed")
	}
	if err := fr.fw.chunk(data); err != nil {
		return err
	}
	fr.records++
	return nil
}

// Commit seals the fragment — user IDs, aggregate meta, envelope
// trailer — and publishes it under its final name (atomicfile), so a
// visible fragment is always complete and durable. m.Records is set
// from the records actually added.
func (fr *Frag) Commit(m *Meta, ids []int) error {
	if fr.done {
		return fmt.Errorf("checkpoint: fragment already sealed")
	}
	fr.done = true
	defer fr.f.Abort()
	if len(ids) != m.Users {
		return fmt.Errorf("checkpoint: committing %d user IDs for %d users", len(ids), m.Users)
	}
	meta := *m
	meta.Records = fr.records
	metaJSON, err := json.Marshal(&meta)
	if err != nil {
		return fmt.Errorf("checkpoint: encode meta: %w", err)
	}
	if err := fr.fw.section(sectionUsers); err != nil {
		return err
	}
	if err := fr.fw.chunk(encodeIDs(ids)); err != nil {
		return err
	}
	if err := fr.fw.section(sectionMeta); err != nil {
		return err
	}
	if err := fr.fw.chunk(metaJSON); err != nil {
		return err
	}
	if err := fr.fw.finish(); err != nil {
		return err
	}
	if err := fr.f.Commit(fr.store.fragPath(fr.shardSum)); err != nil {
		return fmt.Errorf("checkpoint: publish fragment: %w", err)
	}
	return nil
}

// Abort discards the in-progress fragment. Safe to call after Commit
// (it then does nothing).
func (fr *Frag) Abort() {
	fr.done = true
	fr.f.Abort()
}

// encodeIDs packs user IDs as one sorted delta-uvarint chunk (count,
// first ID as varint, then positive deltas). Sorting makes the
// encoding canonical regardless of delivery order.
func encodeIDs(ids []int) []byte {
	sorted := slices.Sorted(slices.Values(ids))
	var e wire.Enc
	e.Uvarint(uint64(len(sorted)))
	for i, id := range sorted {
		if i == 0 {
			e.Varint(int64(id))
		} else {
			e.Uvarint(uint64(id - sorted[i-1]))
		}
	}
	return e.Buf
}

// decodeIDs reverses encodeIDs.
func decodeIDs(data []byte) ([]int, error) {
	d := wire.Dec{Data: data, Prefix: "checkpoint: user IDs"}
	n := d.Uvarint()
	ids := make([]int, 0, min(n, uint64(len(data)))) // an ID takes a byte at least
	var id int64
	for i := uint64(0); i < n && d.Err == nil; i++ {
		if i == 0 {
			id = d.Varint()
		} else if delta := d.Uvarint(); delta > 0 || d.Err != nil {
			id += int64(delta)
		} else {
			d.Fail("zero delta at offset %d", d.Pos)
		}
		ids = append(ids, int(id))
	}
	if d.Err != nil {
		return nil, d.Err
	}
	if d.Pos != len(data) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after user IDs", len(data)-d.Pos)
	}
	return ids, nil
}

// FileChecksum fingerprints one file's raw bytes ("sha256:<hex>") —
// the shard half of a checkpoint key. It hashes the stored bytes, not
// the decoded stream, so a recompressed shard is a different shard.
func FileChecksum(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("checkpoint: checksum: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("checkpoint: checksum %s: %w", path, err)
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)), nil
}

// ManifestChecksum fingerprints a shard-set manifest's semantic
// content — name, POI checksum, and the shard list — so reformatting
// the manifest JSON does not orphan checkpoints, while renaming,
// reordering or resizing shards does.
func ManifestChecksum(m *trace.Manifest) string {
	h := sha256.New()
	fmt.Fprintf(h, "gsb1-shards\x00%s\x00%s\x00%d\x00", m.Name, m.POIChecksum, m.Users)
	for _, sh := range m.Shards {
		fmt.Fprintf(h, "%s\x00%d\x00%d\x00", sh.File, sh.Users, sh.Bytes)
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}
