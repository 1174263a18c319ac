package trace

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"geosocial/internal/poi"
)

// headerSet writes ds as a set of n shards in a fresh directory and
// opens it.
func headerSet(t *testing.T, ds *Dataset, n int, compress bool) (*ShardSet, string) {
	t.Helper()
	manifest, err := ds.SaveShards(t.TempDir(), ShardOptions{Shards: n, Compress: compress})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := OpenShardSet(manifest)
	if err != nil {
		t.Fatal(err)
	}
	return ss, manifest
}

// drainShard opens shard i, reads it to its verified end and returns its
// POI table and user count.
func drainShard(ss *ShardSet, i int) (pois []poi.POI, users int, err error) {
	r, err := ss.OpenShard(i)
	if err != nil {
		return nil, 0, err
	}
	defer r.Close()
	for {
		u, err := r.Next()
		if err == io.EOF {
			return r.POIs(), users, nil
		}
		if err != nil {
			return nil, 0, err
		}
		users++
		r.RecycleUser(u)
	}
}

// headerLen is the byte length of a stream header (magic through POI
// table).
func headerLen(t *testing.T, stream []byte) int {
	t.Helper()
	hdr, _ := streamFrames(t, stream)
	return len(hdr)
}

// TestOpenShardTamperedTableAfterCache: once shard 0 has left its
// verified header on the set, a later shard whose table differs by one
// bit must still fail the manifest checksum with the usual error.
func TestOpenShardTamperedTableAfterCache(t *testing.T) {
	for _, compress := range []bool{false, true} {
		ss, _ := headerSet(t, shardTestDataset(50, 12), 3, compress)
		if _, _, err := drainShard(ss, 0); err != nil {
			t.Fatal(err)
		}
		if ss.hdr.Load() == nil {
			t.Fatal("shard 0 left no verified header on the set")
		}
		info := ss.Manifest.Shards[2]
		path := filepath.Join(ss.Dir, info.File)
		stream := readStream(t, path)
		// The low mantissa byte of the last venue's popularity: a valid
		// table that is not the manifest's.
		stream[headerLen(t, stream)-8] ^= 1
		writeStream(t, path, stream)
		sr, err := NewStreamReaderBytes(stream)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("trace: shard %s: POI table checksum %s, manifest says %s",
			info.File, POIChecksum(sr.POIs()), ss.Manifest.POIChecksum)
		if _, err := ss.OpenShard(2); errText(err) != want {
			t.Fatalf("gzip=%v: tampered shard: got %q, want %q", compress, errText(err), want)
		}
	}
}

// TestOpenShardZeroPaddedTable: a table written with zero-padded varints
// is a different byte string for the same venues. Such a shard must open
// through the full parse, in either order relative to canonical shards,
// and decode to the same table.
func TestOpenShardZeroPaddedTable(t *testing.T) {
	ds := shardTestDataset(40, 12)
	for _, compress := range []bool{false, true} {
		for _, paddedFirst := range []bool{false, true} {
			ss, _ := headerSet(t, ds, 3, compress)
			path := filepath.Join(ss.Dir, ss.Manifest.Shards[1].File)
			stream := readStream(t, path)
			hdr, _ := streamFrames(t, stream)
			sr, err := NewStreamReaderBytes(stream)
			if err != nil {
				t.Fatal(err)
			}
			// Re-encode the table with a padded count and padded
			// categories; the frames follow unchanged.
			padded := appendHeader(nil, sr.Name(), nil)
			padded = putUvarint(padded, uint64(len(sr.POIs())), 3)
			for _, p := range sr.POIs() {
				e := frameEnc{buf: padded}
				e.str(p.Name)
				e.buf = putUvarint(e.buf, zigzag(int64(p.Category)), 2)
				e.latlon(p.Loc)
				e.f64(p.Popularity)
				padded = e.buf
			}
			writeStream(t, path, append(padded, stream[len(hdr):]...))

			order := []int{0, 1, 2}
			if paddedFirst {
				order = []int{1, 0, 2}
			}
			var tables [][]poi.POI
			for _, i := range order {
				tbl, users, err := drainShard(ss, i)
				if err != nil {
					t.Fatalf("gzip=%v paddedFirst=%v: shard %d: %v", compress, paddedFirst, i, err)
				}
				if users != ss.Manifest.Shards[i].Users {
					t.Fatalf("shard %d: %d users, manifest says %d", i, users, ss.Manifest.Shards[i].Users)
				}
				tables = append(tables, tbl)
			}
			for _, tbl := range tables[1:] {
				if !reflect.DeepEqual(tbl, tables[0]) {
					t.Fatalf("gzip=%v paddedFirst=%v: shards decode to different tables", compress, paddedFirst)
				}
			}
		}
	}
}

// TestAppendStreamTableMismatch: a delta stream whose table differs from
// the set's fails with the stream checksum error, after the set has a
// verified header to compare against.
func TestAppendStreamTableMismatch(t *testing.T) {
	ds := shardTestDataset(30, 6)
	_, manifest := headerSet(t, ds, 2, false)
	aw, err := OpenAppend(manifest)
	if err != nil {
		t.Fatal(err)
	}
	pois := append(aw.POIs()[:0:0], aw.POIs()...)
	pois[len(pois)-1].Popularity += 0.5
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, ds.Name, pois)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteUser(&User{ID: 99, Days: 1, GPS: GPSTrace{{T: 1 << 20, Loc: base}}}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("trace: append: stream POI checksum %s, set has %s", POIChecksum(pois), aw.ss.Manifest.POIChecksum)
	if err := aw.AppendStream(&buf); errText(err) != want {
		t.Fatalf("mismatched table: got %q, want %q", errText(err), want)
	}
}

// TestOpenShardConcurrent: concurrent opens of one set — the first ones
// racing to leave the verified header — all read their shards cleanly
// (run under -race).
func TestOpenShardConcurrent(t *testing.T) {
	ds := shardTestDataset(60, 16)
	for _, compress := range []bool{false, true} {
		ss, _ := headerSet(t, ds, 4, compress)
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range ss.Manifest.Shards {
					i := (g + k) % len(ss.Manifest.Shards)
					if _, users, err := drainShard(ss, i); err != nil {
						errs[g] = err
						return
					} else if users != ss.Manifest.Shards[i].Users {
						errs[g] = fmt.Errorf("shard %d: %d users", i, users)
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("gzip=%v: %v", compress, err)
			}
		}
	}
}
