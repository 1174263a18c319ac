package trace

// Sharded corpora: a dataset split across N independent binary shard
// files plus a small JSON manifest. Each shard is a complete GSB1
// stream (own header, POI table, trailer), so any single shard is
// readable by the ordinary StreamReader and shards can be validated
// concurrently with no coordination beyond the manifest. The manifest
// binds the set together: the dataset name, a checksum of the shared
// POI table (every shard must carry a byte-identical table), the total
// user count and the per-shard user counts.
//
// Layout for a corpus named "primary" with 3 shards:
//
//	primary-0000.bin[.gz]
//	primary-0001.bin[.gz]
//	primary-0002.bin[.gz]
//	primary.manifest.json
//
// ShardWriter assigns each user to the shard with the fewest encoded
// bytes so far (ties to the lowest index), which keeps shard sizes
// balanced even when user traces vary wildly in length. The assignment
// depends only on the user order and their encodings, so a corpus
// written twice from the same dataset is byte-identical.

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"geosocial/internal/atomicfile"
	"geosocial/internal/poi"
)

// ManifestSuffix is the conventional file-name suffix of a shard-set
// manifest ("primary" + ManifestSuffix).
const ManifestSuffix = ".manifest.json"

// manifestFormat is the format marker inside a manifest document.
const manifestFormat = "gsb1-shards"

// manifestVersion is the current manifest schema version.
const manifestVersion = 1

// ShardInfo describes one shard file of a sharded corpus.
type ShardInfo struct {
	// File is the shard file name, relative to the manifest's directory.
	File string `json:"file"`
	// Users is the number of user frames in the shard.
	Users int `json:"users"`
	// Bytes is the uncompressed encoded size of the shard stream.
	Bytes int64 `json:"bytes"`
	// Delta marks an append-container shard: its frames carry the data
	// appended in one generation — new trailing GPS fixes / checkins for
	// users that already exist in earlier shards, or complete new users.
	// Delta shards are ordinary GSB1 streams; only their interpretation
	// differs (frames are folded onto earlier frames, see FoldUser).
	Delta bool `json:"delta,omitempty"`
	// Generation is the append generation that produced this shard
	// (>= 1 for delta shards, 0 for base shards).
	Generation int `json:"generation,omitempty"`
	// NewUsers is the number of frames in this delta shard whose user ID
	// does not occur in any earlier shard of the set; only those count
	// toward the manifest's total user count.
	NewUsers int `json:"new_users,omitempty"`
}

// Manifest is the shard-set descriptor stored next to the shard files.
type Manifest struct {
	// Format is the manifest format marker, always "gsb1-shards".
	Format string `json:"format"`
	// Version is the manifest schema version.
	Version int `json:"version"`
	// Name is the dataset name; every shard header must carry it too.
	Name string `json:"name"`
	// POIChecksum is the checksum of the encoded POI table shared by
	// every shard (see POIChecksum).
	POIChecksum string `json:"poi_checksum"`
	// Users is the total distinct user count across all shards: base
	// shards contribute their frame counts, delta shards only the frames
	// introducing users unseen in earlier shards (ShardInfo.NewUsers).
	Users int `json:"users"`
	// Shards lists the shard files in index order. Delta shards always
	// follow every shard of earlier generations.
	Shards []ShardInfo `json:"shards"`
	// Generation counts the appends applied to the set: 0 for a freshly
	// written corpus, incremented by one for each AppendWriter session.
	Generation int `json:"generation,omitempty"`
	// Supersedes is the checksum ("sha256:<hex>") of the manifest file
	// this one atomically replaced, forming an audit chain of appends.
	// Empty for generation 0.
	Supersedes string `json:"supersedes,omitempty"`
}

// POIChecksum fingerprints a POI table: sha256 over the table's binary
// header encoding. Two tables agree on the checksum iff their header
// encodings are byte-identical, which is the invariant a shard set
// needs — every shard must decode checkins against the same venues.
func POIChecksum(pois []poi.POI) string { return tableChecksum(encodePOITable(nil, pois)) }

// tableChecksum is POIChecksum over an already encoded table.
func tableChecksum(table []byte) string { return fmt.Sprintf("sha256:%x", sha256.Sum256(table)) }

// ShardOptions configures NewShardWriter.
type ShardOptions struct {
	// Shards is the number of shard files (must be >= 1).
	Shards int
	// Compress gzip-compresses each shard file (and appends ".gz" to the
	// shard file names).
	Compress bool
}

// shardFile is one open shard of a ShardWriter.
type shardFile struct {
	f     *atomicfile.File
	final string // final file name, relative to the writer's directory
	gz    *gzip.Writer
	sw    *StreamWriter
}

// ShardWriter writes a sharded binary corpus: N shard files plus a
// manifest. Users are validated exactly as StreamWriter validates them,
// with duplicate-ID detection across the whole set. Bytes go to
// temporary files which Close commits into place (atomicfile) before
// writing the manifest last, so a complete manifest on disk always
// describes complete, durable shards.
type ShardWriter struct {
	dir         string
	name        string
	poiChecksum string
	seen        map[int]struct{}
	shards      []*shardFile
	closed      bool
}

// NewShardWriter creates the shard files for a corpus of opts.Shards
// shards in dir and writes their stream headers.
func NewShardWriter(dir, name string, pois []poi.POI, opts ShardOptions) (*ShardWriter, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("trace: shard writer: %d shards (need >= 1)", opts.Shards)
	}
	if name == "" {
		return nil, fmt.Errorf("trace: shard writer: empty corpus name")
	}
	w := &ShardWriter{
		dir:         dir,
		name:        name,
		poiChecksum: POIChecksum(pois),
		seen:        make(map[int]struct{}),
	}
	for i := 0; i < opts.Shards; i++ {
		final := fmt.Sprintf("%s-%04d%s", name, i, FormatBinary.Ext())
		if opts.Compress {
			final += ".gz"
		}
		f, err := atomicfile.Create(dir, 0o666)
		if err != nil {
			w.discard()
			return nil, fmt.Errorf("trace: shard writer: %w", err)
		}
		sf := &shardFile{f: f, final: final}
		w.shards = append(w.shards, sf)
		var sink io.Writer = f
		if opts.Compress {
			sf.gz = gzip.NewWriter(f)
			sink = sf.gz
		}
		if sf.sw, err = NewStreamWriter(sink, name, pois); err != nil {
			w.discard()
			return nil, err
		}
	}
	return w, nil
}

// WriteUser validates the user and appends it to the currently smallest
// shard (ties go to the lowest shard index). The assignment is a pure
// function of the users written so far, so output is deterministic.
func (w *ShardWriter) WriteUser(u *User) error {
	if w.closed {
		return fmt.Errorf("trace: shard writer: writer closed")
	}
	if _, dup := w.seen[u.ID]; dup {
		return fmt.Errorf("trace: shard writer: duplicate user ID %d", u.ID)
	}
	best := 0
	for i, sf := range w.shards {
		if sf.sw.Bytes() < w.shards[best].sw.Bytes() {
			best = i
		}
	}
	if err := w.shards[best].sw.WriteUser(u); err != nil {
		return err
	}
	w.seen[u.ID] = struct{}{}
	return nil
}

// ManifestPath returns the path the manifest is written to by Close.
func (w *ShardWriter) ManifestPath() string {
	return filepath.Join(w.dir, w.name+ManifestSuffix)
}

// Close finishes every shard stream (sentinel, trailer, flush), commits
// the shard files into place, and writes the manifest last. On error
// the temporary files and the shards already committed are removed and
// no manifest is written, unless the manifest was placed and only the
// directory fsync after it failed (atomicfile.ErrSyncDir): the set is
// then complete and stays.
func (w *ShardWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	m := Manifest{
		Format:  manifestFormat,
		Version: manifestVersion,
		Name:    w.name,
	}
	for _, sf := range w.shards {
		if err := sf.sw.Close(); err != nil {
			w.discard()
			return err
		}
		if sf.gz != nil {
			if err := sf.gz.Close(); err != nil {
				w.discard()
				return fmt.Errorf("trace: shard writer: %w", err)
			}
		}
		m.Shards = append(m.Shards, ShardInfo{
			File:  sf.final,
			Users: sf.sw.Users(),
			Bytes: sf.sw.Bytes(),
		})
		m.Users += sf.sw.Users()
	}
	// All streams are complete; commit them into place, then publish
	// the manifest last, so a manifest on disk always describes complete
	// shards. A failure anywhere past the first commit must also undo
	// the commits already done: without a manifest the final files are
	// unreachable, and discard only knows about temps.
	placed := 0 // shards under their final names
	undo := func() {
		w.discard()
		for _, sf := range w.shards[:placed] {
			os.Remove(filepath.Join(w.dir, sf.final))
		}
	}
	for _, sf := range w.shards {
		err := sf.f.Commit(filepath.Join(w.dir, sf.final))
		if err == nil || errors.Is(err, atomicfile.ErrSyncDir) {
			placed++
		}
		if err != nil {
			undo()
			return fmt.Errorf("trace: shard writer: %w", err)
		}
	}
	m.POIChecksum = w.poiChecksum
	// A manifest that was placed (ErrSyncDir) names the committed
	// shards: the set is readable, and undoing them would break it.
	err := writeManifest(w.ManifestPath(), &m)
	if err != nil && !errors.Is(err, atomicfile.ErrSyncDir) {
		undo()
	}
	return err
}

// discard removes any temporary shard files (error path); the shards
// already committed are the caller's to remove.
func (w *ShardWriter) discard() {
	w.closed = true
	for _, sf := range w.shards {
		sf.f.Abort()
	}
}

// writeManifest atomically writes the manifest JSON to path.
func writeManifest(path string, m *Manifest) error {
	f, err := atomicfile.Create(filepath.Dir(path), 0o666)
	if err != nil {
		return fmt.Errorf("trace: write manifest: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		f.Abort()
		return fmt.Errorf("trace: write manifest: %w", err)
	}
	if err := f.Commit(path); err != nil {
		return fmt.Errorf("trace: write manifest: %w", err)
	}
	return nil
}

// SaveShards writes the dataset as a sharded binary corpus in dir and
// returns the manifest path. The dataset is validated as a side effect;
// coordinates are quantized to the E7 grid exactly as SaveFile's binary
// path does.
func (d *Dataset) SaveShards(dir string, opts ShardOptions) (string, error) {
	w, err := NewShardWriter(dir, d.Name, d.POIs, opts)
	if err != nil {
		return "", err
	}
	for _, u := range d.Users {
		if err := w.WriteUser(u); err != nil {
			w.discard()
			return "", err
		}
	}
	if err := w.Close(); err != nil {
		return "", err
	}
	return w.ManifestPath(), nil
}

// ShardSet is an opened shard-set manifest: the parsed, internally
// consistent manifest plus the directory its shard files resolve
// against. OpenShard gives streaming access to one shard.
type ShardSet struct {
	// Manifest is the validated manifest document.
	Manifest Manifest
	// Dir is the directory shard file names resolve against.
	Dir string

	// hdr is the first shard header OpenShard verified, nil until then.
	hdr atomic.Pointer[checkedHeader]
}

// OpenShardSet opens a sharded corpus from a manifest path or from a
// directory containing exactly one "*.manifest.json". It validates the
// manifest document (format marker, shard list, user-count arithmetic,
// sane file names); per-shard header and trailer validation happens as
// each shard is opened and read.
func OpenShardSet(path string) (*ShardSet, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open shard set: %w", err)
	}
	if info.IsDir() {
		path, err = findManifest(path)
		if err != nil {
			return nil, err
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open shard set: %w", err)
	}
	m, err := parseManifest(raw, path)
	if err != nil {
		return nil, err
	}
	return &ShardSet{Manifest: *m, Dir: filepath.Dir(path)}, nil
}

// parseManifest decodes and validates a manifest document. It is a pure
// function of the bytes (path only labels errors), which is what the
// manifest fuzz target exercises.
func parseManifest(raw []byte, path string) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("trace: open shard set %s: %w", path, err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("trace: %s: not a shard manifest (format %q)", path, m.Format)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("trace: %s: unsupported manifest version %d (have %d)", path, m.Version, manifestVersion)
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("trace: %s: manifest lists no shards", path)
	}
	if m.Generation < 0 {
		return nil, fmt.Errorf("trace: %s: negative manifest generation %d", path, m.Generation)
	}
	total, maxGen, prevGen := 0, 0, 0
	for i, s := range m.Shards {
		if s.File == "" || filepath.IsAbs(s.File) || strings.Contains(s.File, "..") {
			return nil, fmt.Errorf("trace: %s: shard %d has unsafe file name %q", path, i, s.File)
		}
		if s.Users < 0 {
			return nil, fmt.Errorf("trace: %s: shard %d has negative user count", path, i)
		}
		if s.Delta {
			if s.Generation < 1 {
				return nil, fmt.Errorf("trace: %s: delta shard %d has generation %d (need >= 1)", path, i, s.Generation)
			}
			if s.NewUsers < 0 || s.NewUsers > s.Users {
				return nil, fmt.Errorf("trace: %s: delta shard %d claims %d new users of %d frames", path, i, s.NewUsers, s.Users)
			}
			total += s.NewUsers
		} else {
			if s.Generation != 0 || s.NewUsers != 0 {
				return nil, fmt.Errorf("trace: %s: base shard %d carries delta fields", path, i)
			}
			if maxGen > 0 {
				return nil, fmt.Errorf("trace: %s: base shard %d listed after a delta shard", path, i)
			}
			total += s.Users
		}
		// Delta shards must appear in non-decreasing generation order so
		// "shard-list order" and "generation order" agree for folding.
		if s.Generation < prevGen {
			return nil, fmt.Errorf("trace: %s: shard %d generation %d after generation %d", path, i, s.Generation, prevGen)
		}
		prevGen = s.Generation
		if s.Generation > maxGen {
			maxGen = s.Generation
		}
	}
	if maxGen != m.Generation {
		return nil, fmt.Errorf("trace: %s: manifest generation %d but shard generations reach %d", path, m.Generation, maxGen)
	}
	if total != m.Users {
		return nil, fmt.Errorf("trace: %s: shard user counts sum to %d, manifest says %d", path, total, m.Users)
	}
	return &m, nil
}

// findManifest locates the single "*.manifest.json" inside dir.
func findManifest(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("trace: open shard set: %w", err)
	}
	var found []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ManifestSuffix) {
			found = append(found, filepath.Join(dir, e.Name()))
		}
	}
	switch len(found) {
	case 0:
		return "", fmt.Errorf("trace: no %s manifest in %s", ManifestSuffix, dir)
	case 1:
		return found[0], nil
	default:
		return "", fmt.Errorf("trace: %d manifests in %s, name one explicitly", len(found), dir)
	}
}

// ShardReader streams one shard of a shard set. It is a FrameSource
// whose end-of-stream additionally verifies the shard against the
// manifest (user count); the header was verified against the manifest
// at open time (name and POI checksum).
type ShardReader struct {
	sr      *StreamReader
	closers []func() error
	seen    map[int]struct{}
	want    int
}

// OpenShard opens shard i for streaming and verifies its header carries
// the manifest's dataset name and an identical POI table. The first
// shard that passes leaves its header, canonically encoded, on the set;
// a later shard whose header bytes equal it shares the decoded table
// instead of parsing and checksumming it again (any other bytes take
// the full check). Safe for concurrent calls.
func (ss *ShardSet) OpenShard(i int) (*ShardReader, error) {
	if i < 0 || i >= len(ss.Manifest.Shards) {
		return nil, fmt.Errorf("trace: shard %d out of range (set has %d)", i, len(ss.Manifest.Shards))
	}
	info := ss.Manifest.Shards[i]
	path := filepath.Join(ss.Dir, info.File)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open shard %s: %w", info.File, err)
	}
	h := ss.hdr.Load()
	var sr *StreamReader
	var closers []func() error
	fail := func(err error) (*ShardReader, error) {
		for _, c := range closers {
			c()
		}
		return nil, err
	}
	checked := false
	if data, unmap, ok := mapBinary(f); ok {
		closers = []func() error{unmap.Close, f.Close}
		if sr, checked = h.readerBytes(data); !checked {
			if sr, err = NewStreamReaderBytes(data); err != nil {
				return fail(fmt.Errorf("trace: shard %s: %w", info.File, err))
			}
		}
	} else {
		br, gz, err := sniffReader(f, h.bufSize())
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("trace: open shard %s: %w", info.File, err)
		}
		closers = []func() error{f.Close}
		if gz != nil {
			closers = []func() error{gz.Close, f.Close}
		}
		if sr, checked = h.reader(br); !checked {
			if sr, err = NewStreamReader(br); err != nil {
				return fail(fmt.Errorf("trace: shard %s: %w", info.File, err))
			}
		}
	}
	if !checked {
		if sr.Name() != ss.Manifest.Name {
			return fail(fmt.Errorf("trace: shard %s: dataset name %q, manifest says %q", info.File, sr.Name(), ss.Manifest.Name))
		}
		table := encodePOITable(nil, sr.POIs())
		if sum := tableChecksum(table); sum != ss.Manifest.POIChecksum {
			return fail(fmt.Errorf("trace: shard %s: POI table checksum %s, manifest says %s", info.File, sum, ss.Manifest.POIChecksum))
		}
		if h == nil {
			ss.hdr.CompareAndSwap(nil, newCheckedHeader(sr, table))
		}
	}
	return &ShardReader{sr: sr, closers: closers, want: info.Users}, nil
}

// POIs returns the shard's decoded POI table (identical across the set,
// as enforced by the manifest checksum). The slice may be shared with
// the set's other readers; callers must not mutate it.
func (r *ShardReader) POIs() []poi.POI { return r.sr.POIs() }

// NextFrame fetches the next raw frame; at the verified end of the
// stream it additionally checks the frame count against the manifest
// before reporting io.EOF.
func (r *ShardReader) NextFrame() (Frame, error) {
	f, err := r.sr.NextFrame()
	if err == nil {
		return f, nil
	}
	if err == io.EOF && r.sr.Users() != r.want {
		return Frame{}, fmt.Errorf("trace: shard has %d users, manifest says %d", r.sr.Users(), r.want)
	}
	return Frame{}, err
}

// DecodeFrame decodes and validates one frame (see StreamReader.DecodeFrame).
func (r *ShardReader) DecodeFrame(f Frame) (*User, error) { return r.sr.DecodeFrame(f) }

// Recycle returns an undecoded frame's buffer to the buffer pool (see
// StreamReader.Recycle).
func (r *ShardReader) Recycle(f Frame) { r.sr.Recycle(f) }

// RecycleUser returns a consumed user record to the record pool (see
// StreamReader.RecycleUser and the UserRecycler contract).
func (r *ShardReader) RecycleUser(u *User) { r.sr.RecycleUser(u) }

// Next decodes the next user serially (NextFrame + DecodeFrame plus a
// reader-local duplicate check), so a single shard can also be read as
// a plain UserSource.
func (r *ShardReader) Next() (*User, error) {
	f, err := r.NextFrame()
	if err != nil {
		return nil, err
	}
	u, err := r.sr.DecodeFrame(f)
	if err != nil {
		return nil, err
	}
	if r.seen == nil {
		r.seen = make(map[int]struct{})
	}
	if _, dup := r.seen[u.ID]; dup {
		return nil, fmt.Errorf("trace: invalid shard: duplicate user ID %d", u.ID)
	}
	r.seen[u.ID] = struct{}{}
	return u, nil
}

// Close releases the shard's file handles. Safe to call more than once.
// DecodeFrame and the recycling methods stay usable afterwards, for
// frames that own their bytes (see Frame.Detach).
func (r *ShardReader) Close() error {
	var first error
	for _, c := range r.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	r.closers = nil
	return first
}
