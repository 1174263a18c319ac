package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
)

// shardTestDataset builds a dataset of nUsers users over a table of
// nPOIs venues: each user has a day of per-minute fixes and a few
// checkins at venues of the table.
func shardTestDataset(nPOIs, nUsers int) *Dataset {
	ds := &Dataset{Name: "scan"}
	for i := 0; i < nPOIs; i++ {
		ds.POIs = append(ds.POIs, poi.POI{
			ID: i, Name: fmt.Sprintf("venue-%d", i), Category: poi.Category(i % 4),
			Loc: geo.Destination(base, float64(i%360), float64(50+i)), Popularity: float64(i%7) / 7,
		})
	}
	for id := 0; id < nUsers; id++ {
		u := &User{ID: id, Days: 1, Profile: Profile{Friends: id % 5, CheckinsPerDay: 2}}
		for k := int64(0); k < 60; k++ {
			u.GPS = append(u.GPS, GPSPoint{T: k * 60, Loc: geo.Destination(base, 45, float64(k*10+int64(id)))})
		}
		for k := 0; k < 3; k++ {
			p := ds.POIs[(id+k)%nPOIs]
			u.Checkins = append(u.Checkins, Checkin{T: int64(k) * 900, POIID: p.ID, POIName: p.Name,
				Category: p.Category, Loc: p.Loc, Truth: LabelHonest})
		}
		ds.Users = append(ds.Users, u)
	}
	return ds
}

// readStream returns a shard file's uncompressed stream bytes.
func readStream(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, ".gz") {
		return raw
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// writeStream replaces a shard file with the given stream bytes,
// gzip-compressed when the file is.
func writeStream(t *testing.T, path string, stream []byte) {
	t.Helper()
	out := stream
	if strings.HasSuffix(path, ".gz") {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(stream); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		out = buf.Bytes()
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// streamFrames splits a complete GSB1 stream into its header bytes and
// its frame payloads.
func streamFrames(t *testing.T, stream []byte) (hdr []byte, frames [][]byte) {
	t.Helper()
	sr, err := NewStreamReaderBytes(stream)
	if err != nil {
		t.Fatal(err)
	}
	hdr = stream[:sr.mmPos]
	for {
		f, err := sr.NextFrame()
		if err == io.EOF {
			return hdr, frames
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f.data)
	}
}

// scanEdit describes how one shard is damaged: the users whose frames
// get three trailing bytes (a decode error naming the user), and, when
// cut >= 0, the user in whose frame the stream ends (a scan error).
type scanEdit struct {
	corrupt map[int]bool
	cut     int
}

// rebuildStream re-encodes a shard stream with the edit applied.
func rebuildStream(t *testing.T, stream []byte, e scanEdit) []byte {
	t.Helper()
	hdr, frames := streamFrames(t, stream)
	out := bytes.Clone(hdr)
	for _, f := range frames {
		id, _ := Frame{data: f}.UserID()
		if e.corrupt[id] {
			f = append(bytes.Clone(f), 0, 0, 0)
		}
		out = binary.AppendUvarint(out, uint64(len(f)))
		if id == e.cut {
			return append(out, f[:len(f)/2]...)
		}
		out = append(out, f...)
	}
	out = binary.AppendUvarint(out, 0)
	return binary.AppendUvarint(out, uint64(len(frames)))
}

// TestAppendCorruptTouchedFrames: an append whose scan meets corrupt
// touched frames in two shards and a truncated later shard must fail
// with the error a serial scan reports — the first failure in shard
// order, from a decode or from the scan — for mapped and gzip sets at
// any GOMAXPROCS, and leave every file of the set byte-identical.
// ShardSet.ScanTouched, with a callback that decodes serially, reports
// the same error.
func TestAppendCorruptTouchedFrames(t *testing.T) {
	ds := shardTestDataset(8, 48)
	touched := func(id int) bool { return id%3 == 1 }
	// Users of each shard in frame order, from a clean copy of the set.
	clean := t.TempDir()
	manifest, err := ds.SaveShards(clean, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := OpenShardSet(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var shardIDs, shardTouched [4][]int
	for i, info := range ss.Manifest.Shards {
		_, frames := streamFrames(t, readStream(t, filepath.Join(clean, info.File)))
		for _, f := range frames {
			id, _ := Frame{data: f}.UserID()
			shardIDs[i] = append(shardIDs[i], id)
			if touched(id) {
				shardTouched[i] = append(shardTouched[i], id)
			}
		}
		if len(shardTouched[i]) < 4 {
			t.Fatalf("shard %d holds %d touched users, want >= 4", i, len(shardTouched[i]))
		}
	}
	trailing := func(id int) string { return fmt.Sprintf("trace: binary frame for user %d has 3 trailing bytes", id) }
	const truncated = "trace: read binary frame: unexpected EOF"
	s1, s2 := shardTouched[1], shardTouched[2]
	cases := []struct {
		name  string
		edits map[int]scanEdit
		want  string
	}{
		{
			// Shard 1's second and fourth touched frames, one of shard 2's,
			// and shard 3 cut short: shard 1's second frame is first.
			name: "decode before later shards",
			edits: map[int]scanEdit{
				1: {corrupt: map[int]bool{s1[1]: true, s1[3]: true}, cut: -1},
				2: {corrupt: map[int]bool{s2[0]: true}, cut: -1},
				3: {cut: shardIDs[3][2]},
			},
			want: trailing(s1[1]),
		},
		{
			// Shard 1 ends inside a frame after its corrupt touched frame:
			// the decode error comes first in shard order.
			name: "decode before truncation",
			edits: map[int]scanEdit{
				1: {corrupt: map[int]bool{s1[2]: true}, cut: s1[3]},
				2: {corrupt: map[int]bool{s2[0]: true}, cut: -1},
				3: {cut: shardIDs[3][2]},
			},
			want: trailing(s1[2]),
		},
		{
			// Shard 1 ends before any corrupt frame: its scan error wins over
			// the corrupt frames of shard 2.
			name: "truncation before decode",
			edits: map[int]scanEdit{
				1: {cut: shardIDs[1][0]},
				2: {corrupt: map[int]bool{s2[0]: true, s2[1]: true}, cut: -1},
				3: {cut: shardIDs[3][2]},
			},
			want: truncated,
		},
	}
	for _, compress := range []bool{false, true} {
		for _, tc := range cases {
			for _, procs := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s/gzip=%v/procs=%d", tc.name, compress, procs)
				t.Run(name, func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					dir := t.TempDir()
					manifest, err := ds.SaveShards(dir, ShardOptions{Shards: 4, Compress: compress})
					if err != nil {
						t.Fatal(err)
					}
					ss, err := OpenShardSet(manifest)
					if err != nil {
						t.Fatal(err)
					}
					for i, e := range tc.edits {
						path := filepath.Join(dir, ss.Manifest.Shards[i].File)
						writeStream(t, path, rebuildStream(t, readStream(t, path), e))
					}
					before := dirDigest(t, dir)

					aw, err := OpenAppend(manifest)
					if err != nil {
						t.Fatal(err)
					}
					for _, u := range ds.Users {
						if touched(u.ID) {
							d := &User{ID: u.ID, Days: 2, GPS: GPSTrace{{T: 1 << 20, Loc: base}}}
							if err := aw.WriteUser(d); err != nil {
								t.Fatal(err)
							}
						}
					}
					err = aw.Close()
					if got := errText(err); got != tc.want {
						t.Fatalf("Close error\n got %q\nwant %q", got, tc.want)
					}
					err = ss.ScanTouched(4, touched, func(_ int, r *StreamReader, frames []Frame, _ []int) error {
						for k, f := range frames {
							if _, err := r.DecodeFrame(f); err != nil {
								for _, rest := range frames[k+1:] {
									r.Recycle(rest)
								}
								return err
							}
						}
						return nil
					})
					if got := errText(err); got != tc.want {
						t.Fatalf("ScanTouched error\n got %q\nwant %q", got, tc.want)
					}
					after := dirDigest(t, dir)
					if len(after) != len(before) {
						t.Fatalf("failed append left %d files, had %d", len(after), len(before))
					}
					for name, sum := range before {
						if after[name] != sum {
							t.Fatalf("failed append changed %s", name)
						}
					}
				})
			}
		}
	}
}
