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
//
// Each gzip shard deflates on its own goroutine (compressor): the
// caller validates, assigns and encodes, and hands each 64 KiB flush of
// a shard's StreamWriter to that shard's compressor through a small
// bounded queue. Deflate is what a gzip write spends its time on, so
// the shards compress on up to GOMAXPROCS cores while the bytes (and so
// the assignment) stay those of the serial encoding.

import (
	"cmp"
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
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
	final string      // final file name, relative to the writer's directory
	c     *compressor // nil for an uncompressed shard
	sw    *StreamWriter
}

// chunksPerShard is how many StreamWriter flushes a compressor's queue
// holds: enough that a shard's deflate keeps running while the caller
// encodes users for the other shards, few enough that the memory stays
// a few 64 KiB chunks per shard.
const chunksPerShard = 4

// compressSink is the writer a compressor deflates into, given the
// shard's temporary file; tests replace it to inject write failures.
var compressSink = func(f io.Writer) io.Writer { return f }

// compressor gzips one shard on its own goroutine. Write queues a copy
// of each chunk the shard's StreamWriter flushes; wait ends the stream
// and returns once the goroutine has closed the gzip stream and exited.
// The goroutine stops at its first error, which every later Write and
// wait return.
type compressor struct {
	gz   *gzip.Writer
	file string        // the shard's final name, for errors
	cpu  chan struct{} // one token per core, shared by a writer's compressors
	work chan []byte   // queued chunks, in stream order
	free chan []byte   // chunks the goroutine is done with, for reuse
	done chan struct{} // closed when the goroutine returns
	err  error         // the goroutine's error, read only after done
	shut bool          // work is closed
}

func newCompressor(f io.Writer, file string, cpu chan struct{}) *compressor {
	c := &compressor{
		gz:   newGSB1Gzip(compressSink(f)),
		file: file,
		cpu:  cpu,
		work: make(chan []byte, chunksPerShard),
		free: make(chan []byte, chunksPerShard),
		done: make(chan struct{}),
	}
	for i := 0; i < chunksPerShard; i++ {
		c.free <- nil // allocated on first use
	}
	go c.run()
	return c
}

// run deflates the queued chunks in order, then closes the gzip stream.
// Every chunk is in work, free or the hands of one side, so neither
// channel send blocks.
func (c *compressor) run() {
	defer close(c.done)
	for chunk := range c.work {
		if c.err = c.deflate(func() error { _, err := c.gz.Write(chunk); return err }); c.err != nil {
			return
		}
		c.free <- chunk
	}
	c.err = c.deflate(c.gz.Close)
}

// deflate runs one step of the stream while holding a core token, so a
// writer's compressors together run on at most GOMAXPROCS cores.
func (c *compressor) deflate(step func() error) error {
	c.cpu <- struct{}{}
	err := step()
	<-c.cpu
	if err != nil {
		return fmt.Errorf("trace: shard writer: compress %s: %w", c.file, err)
	}
	return nil
}

// failed returns the goroutine's error once it has stopped on one.
func (c *compressor) failed() error {
	select {
	case <-c.done:
		return c.err
	default:
		return nil
	}
}

// Write queues a copy of p: the StreamWriter reuses its buffer.
func (c *compressor) Write(p []byte) (int, error) {
	if err := c.failed(); err != nil {
		return 0, err
	}
	var chunk []byte
	select {
	case chunk = <-c.free:
	case <-c.done: // stopped on an error while holding a chunk
		return 0, c.err
	}
	c.work <- append(chunk[:0], p...)
	return len(p), nil
}

// end tells the goroutine no more chunks follow. Safe to call again.
func (c *compressor) end() {
	if !c.shut {
		c.shut = true
		close(c.work)
	}
}

// wait ends the stream, waits for the goroutine to return and reports
// its error.
func (c *compressor) wait() error {
	c.end()
	<-c.done
	return c.err
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
	var cpu chan struct{}
	if opts.Compress {
		cpu = make(chan struct{}, runtime.GOMAXPROCS(0))
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
			sf.c = newCompressor(f, final, cpu)
			sink = sf.c
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
// A shard whose compressor has failed fails every later WriteUser.
func (w *ShardWriter) WriteUser(u *User) error {
	if w.closed {
		return fmt.Errorf("trace: shard writer: writer closed")
	}
	if _, dup := w.seen[u.ID]; dup {
		return fmt.Errorf("trace: shard writer: duplicate user ID %d", u.ID)
	}
	best := 0
	for i, sf := range w.shards {
		if sf.c != nil {
			if err := sf.c.failed(); err != nil {
				return err
			}
		}
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

// Close finishes every shard stream (sentinel, trailer, flush), waits
// for every compressor to close its gzip stream, commits the shard
// files into place, and writes the manifest last. On error
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
		if sf.c != nil {
			sf.c.end()
		}
	}
	for _, sf := range w.shards {
		if sf.c != nil {
			if err := sf.c.wait(); err != nil {
				w.discard()
				return err
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

// discard stops every compressor and removes any temporary shard files
// (error path); the shards already committed are the caller's to remove.
func (w *ShardWriter) discard() {
	w.closed = true
	for _, sf := range w.shards {
		if sf.c != nil {
			_ = sf.c.wait() // the temp goes; the caller reports the failure that led here
		}
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

	path string // the manifest file
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
	return &ShardSet{Manifest: *m, Dir: filepath.Dir(path), path: path}, nil
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

// OpenShard opens shard i for streaming and verifies its header carries
// the manifest's dataset name and an identical POI table; the reader's
// clean end also verifies the manifest's user count for the shard. The
// first shard that passes leaves its header, canonically encoded, on
// the set; a later shard whose header bytes equal it shares the decoded
// table instead of parsing and checksumming it again (any other bytes
// take the full check). The table may thus be shared with the set's
// other readers; callers must not mutate it. Safe for concurrent calls.
func (ss *ShardSet) OpenShard(i int) (*StreamReader, error) {
	if i < 0 || i >= len(ss.Manifest.Shards) {
		return nil, fmt.Errorf("trace: shard %d out of range (set has %d)", i, len(ss.Manifest.Shards))
	}
	info := &ss.Manifest.Shards[i]
	h := ss.hdr.Load()
	sr, checked, err := openFile(filepath.Join(ss.Dir, info.File), h, info.File)
	if err != nil {
		return nil, err
	}
	if !checked {
		table, err := ss.checkHeader(sr, "trace: shard %s: dataset name %q, manifest says %q",
			"trace: shard %s: POI table checksum %s, manifest says %s", info.File)
		if err != nil {
			sr.Close()
			return nil, err
		}
		if h == nil {
			ss.hdr.CompareAndSwap(nil, newCheckedHeader(sr, table))
		}
	}
	sr.shard = info
	return sr, nil
}

// checkHeader verifies that sr's header carries the set's dataset name
// and POI table, and returns the table's encoding. It is the one header
// check of OpenShard and AppendWriter.AppendStream, which each word a
// mismatch: nameFmt or sumFmt, applied to args and then the stream's
// value and the manifest's.
func (ss *ShardSet) checkHeader(sr *StreamReader, nameFmt, sumFmt string, args ...any) ([]byte, error) {
	if sr.Name() != ss.Manifest.Name {
		return nil, fmt.Errorf(nameFmt, append(args, sr.Name(), ss.Manifest.Name)...)
	}
	table := encodePOITable(nil, sr.POIs())
	if sum := tableChecksum(table); sum != ss.Manifest.POIChecksum {
		return nil, fmt.Errorf(sumFmt, append(args, sum, ss.Manifest.POIChecksum)...)
	}
	return table, nil
}

// ScanTouched walks the set's first n shards once, in order, peeking
// each frame's user ID (Frame.UserID) without decoding the frame. The
// frames whose IDs touched reports go to fn with their IDs, one call
// per shard with that shard's reader, in stream order, before the
// reader closes; every other frame is recycled unread. fn owns the
// frames it is handed: it decodes, detaches (Frame.Detach) or recycles
// each through r, and must not keep the slices. A shard whose stream
// breaks still hands fn the frames before the break, and fn's error
// wins over the break's, so the error returned is the first a serial
// read in shard order would meet.
func (ss *ShardSet) ScanTouched(n int, touched func(id int) bool, fn func(shard int, r *StreamReader, frames []Frame, ids []int) error) error {
	var frames []Frame
	var ids []int
	for i := 0; i < n; i++ {
		r, err := ss.OpenShard(i)
		if err != nil {
			return err
		}
		frames, ids = frames[:0], ids[:0]
		var scanErr error
		for {
			f, err := r.NextFrame()
			if err != nil {
				if err != io.EOF {
					scanErr = err
				}
				break
			}
			id, err := f.UserID()
			if err != nil {
				r.Recycle(f)
				scanErr = err
				break
			}
			if touched(id) {
				frames, ids = append(frames, f), append(ids, id)
			} else {
				r.Recycle(f)
			}
		}
		if err := fn(i, r, frames, ids); err != nil || scanErr != nil {
			r.Close()
			return cmp.Or(err, scanErr)
		}
		if err := r.Close(); err != nil {
			return fmt.Errorf("trace: close shard %s: %w", ss.Manifest.Shards[i].File, err)
		}
	}
	return nil
}
