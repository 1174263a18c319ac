package trace

// Append container: the generation-aware side of sharded corpora.
//
// A shard set grows by whole generations. Each AppendWriter session
// writes exactly one delta shard — an ordinary GSB1 stream whose frames
// are interpreted against the earlier shards: a frame for an existing
// user carries only that user's newly appended GPS fixes and checkins
// (plus its updated Days/Profile), a frame for an unseen ID introduces
// a complete new user. The base shards are never rewritten; the
// manifest is atomically replaced with one that lists the delta shard,
// bumps Generation, and records the superseded manifest's checksum.
//
// Folding is deterministic: a user's effective trace is the
// concatenation of its frames in shard-list order (base first, then
// delta shards in generation order), with Days and Profile taken from
// the last frame. checkSeams enforces the chronological seams, so a
// folded set decodes to exactly the users a from-scratch corpus of the
// concatenated data would contain.

import (
	"compress/gzip"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"geosocial/internal/atomicfile"
	"geosocial/internal/par"
	"geosocial/internal/poi"
	"geosocial/internal/wire"
)

// FoldUser merges a user's base frame with the delta frames appended
// for it, in generation order. Each delta's GPS fixes and checkins are
// concatenated after the accumulated trace (checkSeams enforces the
// chronological seam: a delta may not begin before the previous frame
// ended), and Days/Profile come from the last delta. The inputs are not
// mutated; with no deltas the base is returned as-is. Otherwise the
// output is a record from the decode pool, filled in its own buffers
// (reused when large enough), so a consumer that is done with it hands
// it back with RecycleUser, or its GPS buffer alone with RecycleGPS.
func FoldUser(base *User, deltas []*User) (*User, error) {
	if len(deltas) == 0 {
		return base, nil
	}
	spans := make([]frameSpan, len(deltas))
	nGPS, nCk := len(base.GPS), len(base.Checkins)
	for i, d := range deltas {
		spans[i] = spanOf(d)
		nGPS += len(d.GPS)
		nCk += len(d.Checkins)
	}
	if err := checkSeams(spanOf(base), spans); err != nil {
		return nil, err
	}
	out, _ := userPool.Get().(*User)
	if out == nil {
		out = &User{}
	}
	out.ID = base.ID
	out.Profile = deltas[len(deltas)-1].Profile
	out.Days = deltas[len(deltas)-1].Days
	if cap(out.GPS) < nGPS {
		out.GPS = make(GPSTrace, 0, nGPS)
	}
	if cap(out.Checkins) < nCk {
		out.Checkins = make(CheckinTrace, 0, nCk)
	}
	out.GPS = append(out.GPS[:0], base.GPS...)
	out.Checkins = append(out.Checkins[:0], base.Checkins...)
	for _, d := range deltas {
		out.GPS = append(out.GPS, d.GPS...)
		out.Checkins = append(out.Checkins, d.Checkins...)
	}
	return out, nil
}

// frameSpan is all the seam rule reads of one frame: its user ID and
// the first and last times of its GPS fixes and of its checkins.
type frameSpan struct {
	id                int
	gps, ck           bool // the frame has fixes / checkins
	gpsFirst, gpsLast int64
	ckFirst, ckLast   int64
}

func spanOf(u *User) frameSpan {
	s := frameSpan{id: u.ID, gps: len(u.GPS) > 0, ck: len(u.Checkins) > 0}
	if s.gps {
		s.gpsFirst, s.gpsLast = u.GPS[0].T, u.GPS[len(u.GPS)-1].T
	}
	if s.ck {
		s.ckFirst, s.ckLast = u.Checkins[0].T, u.Checkins[len(u.Checkins)-1].T
	}
	return s
}

// checkSeams is the fold seam rule for a base frame and its deltas in
// generation order: every delta belongs to the base's user, and each
// delta's fixes and checkins start no earlier than the accumulated
// trace's last fix and last checkin.
func checkSeams(base frameSpan, deltas []frameSpan) error {
	for _, d := range deltas {
		if d.id != base.id {
			return fmt.Errorf("trace: fold user %d: delta frame for user %d", base.id, d.id)
		}
	}
	tail := base
	for _, d := range deltas {
		if d.gps && tail.gps && d.gpsFirst < tail.gpsLast {
			return fmt.Errorf("trace: fold user %d: delta GPS starts at %d, before trace end %d",
				base.id, d.gpsFirst, tail.gpsLast)
		}
		if d.ck && tail.ck && d.ckFirst < tail.ckLast {
			return fmt.Errorf("trace: fold user %d: delta checkins start at %d, before trace end %d",
				base.id, d.ckFirst, tail.ckLast)
		}
		if d.gps {
			tail.gps, tail.gpsLast = true, d.gpsLast
		}
		if d.ck {
			tail.ck, tail.ckLast = true, d.ckLast
		}
	}
	return nil
}

// DeltaSet is a generational shard set's delta content, fully decoded
// and indexed by user ID — the in-memory side of folding. It is
// read-only after MergeSets builds it, so Fold and FoldSource are safe
// from concurrent decode workers. Memory is O(appended data), never
// O(corpus).
type DeltaSet struct {
	users map[int][]*User // delta frames per user, in shard-list order
	home  map[int]int     // manifest shard index of each ID's first delta frame
}

// MergeSets loads every delta shard of a generational shard set from
// manifest shard index first on and returns the fold index: first 0
// loads them all, and an update passes the count of shards its
// previous result covered. For a generation-0 set it returns an empty
// DeltaSet.
func MergeSets(ss *ShardSet, first int) (*DeltaSet, error) {
	ds := &DeltaSet{users: make(map[int][]*User), home: make(map[int]int)}
	for i := first; i < len(ss.Manifest.Shards); i++ {
		info := ss.Manifest.Shards[i]
		if !info.Delta {
			continue
		}
		r, err := ss.OpenShard(i)
		if err != nil {
			return nil, err
		}
		for {
			u, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.Close()
				return nil, err
			}
			if _, ok := ds.home[u.ID]; !ok {
				ds.home[u.ID] = i
			}
			ds.users[u.ID] = append(ds.users[u.ID], u)
		}
		if err := r.Close(); err != nil {
			return nil, fmt.Errorf("trace: close delta shard %s: %w", info.File, err)
		}
	}
	return ds, nil
}

// Len returns the number of distinct users with delta frames.
func (ds *DeltaSet) Len() int { return len(ds.users) }

// IDs returns the delta user IDs in ascending order.
func (ds *DeltaSet) IDs() []int {
	ids := make([]int, 0, len(ds.users))
	for id := range ds.users {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Home returns the manifest shard index of the ID's first delta frame
// (-1 when the ID has none) — the shard a brand-new user is attributed
// to in per-shard statistics.
func (ds *DeltaSet) Home(id int) int {
	if i, ok := ds.home[id]; ok {
		return i
	}
	return -1
}

// Frames returns the ID's delta frames in shard-list order (nil when
// it has none). The records are the DeltaSet's own: read-only.
func (ds *DeltaSet) Frames(id int) []*User { return ds.users[id] }

// Fold returns the base user with its delta frames folded in, or the
// base unchanged when it has none.
func (ds *DeltaSet) Fold(base *User) (*User, error) {
	return FoldUser(base, ds.users[base.ID])
}

// FoldNew folds a user that exists only in delta shards: its first
// delta frame acts as the base.
func (ds *DeltaSet) FoldNew(id int) (*User, error) {
	frames := ds.users[id]
	if len(frames) == 0 {
		return nil, fmt.Errorf("trace: fold user %d: no delta frames", id)
	}
	return FoldUser(frames[0], frames[1:])
}

// FoldSource wraps a base-shard FrameSource so every decoded user comes
// out with its delta frames folded in. NextFrame passes through;
// DecodeFrame stays safe for concurrent calls on distinct frames
// because the DeltaSet is read-only.
//
// The fold source is a UserRecycler that recycles through src's pool
// when src is one (and drops records otherwise): a base record FoldUser
// copied goes back at once, and a consumer hands back either kind of
// user DecodeFrame returns — a base record or a fold output, both pool
// records. The DeltaSet keeps only delta records, which Fold never
// returns.
func (ds *DeltaSet) FoldSource(src FrameSource) FrameSource {
	r, _ := src.(UserRecycler)
	return foldSource{src: src, r: r, ds: ds}
}

type foldSource struct {
	src FrameSource
	r   UserRecycler // src's, nil when it has none
	ds  *DeltaSet
}

func (fs foldSource) NextFrame() (Frame, error) { return fs.src.NextFrame() }

func (fs foldSource) DecodeFrame(f Frame) (*User, error) {
	u, err := fs.src.DecodeFrame(f)
	if err != nil {
		return nil, err
	}
	v, err := fs.ds.Fold(u)
	if v != u {
		fs.RecycleUser(u)
	}
	return v, err
}

func (fs foldSource) RecycleUser(u *User) {
	if fs.r != nil {
		fs.r.RecycleUser(u)
	}
}

// AppendWriter appends one generation to an existing shard set. Users
// are buffered in memory (an append is O(new data), never O(corpus))
// and Close performs the whole mutation: it verifies every fold seam
// against the existing shards, writes the delta shard, and atomically
// replaces the manifest. Nothing on disk changes before Close, and a
// failed Close leaves the set exactly as it was.
type AppendWriter struct {
	ss       *ShardSet
	pois     []poi.POI
	compress bool
	users    []*User
	byID     map[int]*User
	closed   bool
}

// OpenAppend opens a shard set (manifest path or directory) for
// appending one generation. The POI table is read from the first shard;
// appended checkins must reference it (the table itself is immutable
// across generations, as the manifest's POI checksum enforces).
func OpenAppend(path string) (*AppendWriter, error) {
	ss, err := OpenShardSet(path)
	if err != nil {
		return nil, err
	}
	r, err := ss.OpenShard(0)
	if err != nil {
		return nil, err
	}
	pois := append([]poi.POI(nil), r.POIs()...)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("trace: append: %w", err)
	}
	return &AppendWriter{
		ss:       ss,
		pois:     pois,
		compress: strings.HasSuffix(ss.Manifest.Shards[0].File, ".gz"),
		byID:     make(map[int]*User),
	}, nil
}

// Name returns the dataset name of the set being appended to.
func (aw *AppendWriter) Name() string { return aw.ss.Manifest.Name }

// POIs returns the set's shared POI table.
func (aw *AppendWriter) POIs() []poi.POI { return aw.pois }

// Generation returns the generation this append will produce.
func (aw *AppendWriter) Generation() int { return aw.ss.Manifest.Generation + 1 }

// ManifestPath returns the manifest path Close rewrites.
func (aw *AppendWriter) ManifestPath() string { return aw.ss.path }

// WriteUser buffers one delta user: for an ID that exists in the set,
// only the newly appended GPS fixes and checkins (with the user's
// updated Days/Profile); for an unseen ID, the complete new user. At
// most one frame per user per generation.
func (aw *AppendWriter) WriteUser(u *User) error {
	if aw.closed {
		return fmt.Errorf("trace: append: writer closed")
	}
	if err := u.Validate(); err != nil {
		return fmt.Errorf("trace: append: %w", err)
	}
	if err := u.validateRefs(len(aw.pois)); err != nil {
		return fmt.Errorf("trace: append: %w", err)
	}
	if _, dup := aw.byID[u.ID]; dup {
		return fmt.Errorf("trace: append: duplicate user ID %d in one generation", u.ID)
	}
	aw.byID[u.ID] = u
	aw.users = append(aw.users, u)
	return nil
}

// AppendStream feeds a whole GSB1 delta stream into the writer after
// verifying its header matches the set (dataset name and POI-table
// checksum) — the wire form of an append, as accepted by the serve
// layer's append endpoint. A header byte-equal to the set's verified one
// (see OpenShard) passes without a parse.
func (aw *AppendWriter) AppendStream(r io.Reader) error {
	h := aw.ss.hdr.Load()
	rd := wire.NewReader(&gsb1, r, h.bufSize())
	sr, checked := h.reader(rd)
	if !checked {
		var err error
		if sr, err = newStreamReader(rd); err != nil {
			return err
		}
		if _, err := aw.ss.checkHeader(sr, "trace: append: stream is for dataset %q, set is %q",
			"trace: append: stream POI checksum %s, set has %s"); err != nil {
			return err
		}
	}
	for {
		u, err := sr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := aw.WriteUser(u); err != nil {
			return err
		}
	}
}

// scanExisting walks every existing shard once (ShardSet.ScanTouched),
// collecting the seam spans of the buffered users' frames in shard-list
// order. Only matching frames are decoded, and fully, so a corrupt
// frame fails the append. Each shard's matching frames decode on the
// worker pool before the shard is closed, so a mapped frame needs no
// copy and one shard's frames are held at a time; each decoded record
// goes straight back to the pool once its span is taken.
func (aw *AppendWriter) scanExisting() (map[int][]frameSpan, error) {
	parts := make(map[int][]frameSpan, len(aw.byID))
	touched := func(id int) bool { _, ok := aw.byID[id]; return ok }
	err := aw.ss.ScanTouched(len(aw.ss.Manifest.Shards), touched, func(_ int, r *StreamReader, frames []Frame, _ []int) error {
		spans, err := par.Map(0, len(frames), func(k int) (frameSpan, error) {
			u, err := r.DecodeFrame(frames[k])
			if err != nil {
				return frameSpan{}, err
			}
			s := spanOf(u)
			r.RecycleUser(u)
			return s, nil
		})
		for _, s := range spans {
			parts[s.id] = append(parts[s.id], s)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// Close applies the append: every buffered user's seams are checked
// against the spans of its existing frames (checkSeams, the rule
// FoldUser applies, without building the folded trace), the delta
// shard is written next to the others, and the manifest is atomically
// replaced with the next generation. On any error the set on disk is
// left untouched.
func (aw *AppendWriter) Close() error {
	if aw.closed {
		return nil
	}
	aw.closed = true
	if len(aw.users) == 0 {
		return fmt.Errorf("trace: append: no users to append")
	}

	parts, err := aw.scanExisting()
	if err != nil {
		return err
	}
	newUsers := 0
	for _, u := range aw.users {
		chain := parts[u.ID]
		if len(chain) == 0 {
			newUsers++
			continue
		}
		deltas := append(chain[1:len(chain):len(chain)], spanOf(u))
		if err := checkSeams(chain[0], deltas); err != nil {
			return fmt.Errorf("trace: append: %w", err)
		}
	}

	gen := aw.ss.Manifest.Generation + 1
	name := aw.ss.Manifest.Name
	final := fmt.Sprintf("%s-delta-%04d%s", name, gen, FormatBinary.Ext())
	if aw.compress {
		final += ".gz"
	}
	finalPath := filepath.Join(aw.ss.Dir, final)
	if _, err := os.Stat(finalPath); err == nil {
		return fmt.Errorf("trace: append: delta shard %s already exists", final)
	}

	f, err := atomicfile.Create(aw.ss.Dir, 0o666)
	if err != nil {
		return fmt.Errorf("trace: append: %w", err)
	}
	defer f.Abort()
	var sink io.Writer = f
	var gz *gzip.Writer
	if aw.compress {
		gz = newGSB1Gzip(f)
		sink = gz
	}
	sw, err := NewStreamWriter(sink, name, aw.pois)
	if err != nil {
		return err
	}
	for _, u := range aw.users {
		if err := sw.WriteUser(u); err != nil {
			return err
		}
	}
	if err := sw.Close(); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return fmt.Errorf("trace: append: %w", err)
		}
	}

	// The superseded manifest's checksum goes into the audit chain
	// before the file is replaced.
	prevRaw, err := os.ReadFile(aw.ss.path)
	if err != nil {
		return fmt.Errorf("trace: append: %w", err)
	}

	m := aw.ss.Manifest
	m.Shards = append(append([]ShardInfo(nil), m.Shards...), ShardInfo{
		File:       final,
		Users:      sw.Users(),
		Bytes:      sw.Bytes(),
		Delta:      true,
		Generation: gen,
		NewUsers:   newUsers,
	})
	m.Users += newUsers
	m.Generation = gen
	m.Supersedes = fmt.Sprintf("sha256:%x", sha256.Sum256(prevRaw))

	// Publish: delta shard first, manifest last, so a manifest on disk
	// always describes complete, durable shards (the ShardWriter
	// discipline). CommitNew fails instead of replacing, so a concurrent
	// append that raced past the existence check above fails here rather
	// than silently overwriting the other session's published delta.
	// A delta the commit linked (ErrSyncDir) is this session's to
	// remove; once the manifest is placed it names the delta, which
	// then stays.
	if err := f.CommitNew(finalPath); err != nil {
		if errors.Is(err, atomicfile.ErrSyncDir) {
			os.Remove(finalPath)
		}
		if errors.Is(err, os.ErrExist) {
			return fmt.Errorf("trace: append: delta shard %s already exists", final)
		}
		return fmt.Errorf("trace: append: %w", err)
	}
	err = writeManifest(aw.ss.path, &m)
	if err != nil && !errors.Is(err, atomicfile.ErrSyncDir) {
		os.Remove(finalPath)
	}
	return err
}
