package trace_test

// Round-trip, corruption and streaming-contract tests for the binary
// dataset codec. These live in an external test package so they can
// exercise the codec against real synthetic datasets (internal/synth
// imports internal/trace, so the internal test package cannot).

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

// genDataset produces a small synthetic primary dataset.
func genDataset(t *testing.T, seed uint64, scale float64) *trace.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(scale), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// binaryRoundTrip encodes ds as binary and decodes it back.
func binaryRoundTrip(t *testing.T, ds *trace.Dataset) *trace.Dataset {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// jsonRoundTrip encodes ds as JSON and decodes it back.
func jsonRoundTrip(t *testing.T, ds *trace.Dataset) *trace.Dataset {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestBinaryRoundTripAgainstJSON is the codec's core property: after one
// binary round trip (which quantizes coordinates to the E7 grid), a
// dataset round-trips exactly through BOTH codecs — the JSON-loaded and
// binary-streamed views are deeply equal — across seeds and scales.
func TestBinaryRoundTripAgainstJSON(t *testing.T) {
	cases := []struct {
		seed  uint64
		scale float64
	}{
		{7, 0.02},
		{42, 0.03},
		{1001, 0.05},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("seed=%d/scale=%g", c.seed, c.scale), func(t *testing.T) {
			ds := genDataset(t, c.seed, c.scale)
			onGrid := binaryRoundTrip(t, ds)
			if len(onGrid.Users) != len(ds.Users) || onGrid.Name != ds.Name {
				t.Fatalf("binary round trip lost structure: %d users, name %q",
					len(onGrid.Users), onGrid.Name)
			}
			// Quantization moved every coordinate by under 1.1 cm.
			for ui, u := range ds.Users {
				for pi, p := range u.GPS {
					if d := geo.Distance(p.Loc, onGrid.Users[ui].GPS[pi].Loc); d > 0.02 {
						t.Fatalf("user %d GPS %d moved %.4f m in quantization", ui, pi, d)
					}
				}
			}
			viaJSON := jsonRoundTrip(t, onGrid)
			viaBinary := binaryRoundTrip(t, onGrid)
			if !reflect.DeepEqual(onGrid, viaJSON) {
				t.Fatal("JSON round trip of an E7-grid dataset is not identity")
			}
			if !reflect.DeepEqual(onGrid, viaBinary) {
				t.Fatal("binary round trip is not idempotent")
			}
		})
	}
}

// TestBinaryRoundTripEdgeCases covers the degenerate shapes: empty
// dataset, empty POI table, single user, users with zero checkins and
// zero GPS points, and non-contiguous user IDs.
func TestBinaryRoundTripEdgeCases(t *testing.T) {
	base := geo.LatLon{Lat: 34.4208, Lon: -119.6982}
	pois := []poi.POI{
		{ID: 0, Name: "A", Category: poi.Food, Loc: base, Popularity: 1.5},
		{ID: 1, Name: "B", Category: poi.Shop, Loc: geo.Destination(base, 90, 500)},
	}
	cases := []struct {
		name string
		ds   *trace.Dataset
	}{
		{"empty", &trace.Dataset{Name: "empty"}},
		{"pois-only", &trace.Dataset{Name: "pois", POIs: pois}},
		{"zero-trace-user", &trace.Dataset{
			Name: "zero",
			POIs: pois,
			Users: []*trace.User{
				{ID: 3, Days: 2.5, Profile: trace.Profile{Friends: 4, CheckinsPerDay: 0.25}},
			},
		}},
		{"full-user", &trace.Dataset{
			Name: "full",
			POIs: pois,
			Users: []*trace.User{
				{ID: 9}, // zero everything, non-contiguous ID
				{
					ID:   2,
					Days: 1,
					GPS: trace.GPSTrace{
						{T: 0, Loc: base},
						{T: 60, Loc: base, Indoor: true},
						{T: 60, Loc: geo.Destination(base, 0, 40)}, // equal timestamps
					},
					Checkins: trace.CheckinTrace{
						{T: 30, POIID: 0, POIName: "A", Category: poi.Food, Loc: base, Truth: trace.LabelHonest},
						{T: 90, POIID: 1, POIName: "B", Category: poi.Shop, Loc: pois[1].Loc, Truth: "custom-label"},
					},
				},
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := binaryRoundTrip(t, tc.ds)
			want := binaryRoundTrip(t, got) // compare on the E7 grid
			if !reflect.DeepEqual(got, want) {
				t.Fatal("binary round trip not idempotent")
			}
			if len(got.Users) != len(tc.ds.Users) || len(got.POIs) != len(tc.ds.POIs) {
				t.Fatalf("lost structure: %d users, %d POIs", len(got.Users), len(got.POIs))
			}
			if len(tc.ds.Users) > 0 {
				if got.Users[0].ID != tc.ds.Users[0].ID {
					t.Errorf("user ID %d, want %d", got.Users[0].ID, tc.ds.Users[0].ID)
				}
			}
			if tc.name == "full-user" {
				u := got.Users[1]
				if !u.GPS[1].Indoor || u.GPS[0].Indoor {
					t.Error("indoor flags lost")
				}
				if u.Checkins[0].Truth != trace.LabelHonest || u.Checkins[1].Truth != "custom-label" {
					t.Errorf("truth labels lost: %q, %q", u.Checkins[0].Truth, u.Checkins[1].Truth)
				}
				if u.Checkins[1].POIName != "B" {
					t.Errorf("POI name lost: %q", u.Checkins[1].POIName)
				}
			}
		})
	}
}

// TestBinarySmallerThanJSON enforces the codec's reason to exist: on a
// real synthetic dataset the binary encoding must be several times
// smaller than JSON (the benches in codec_bench_test.go quantify the
// decode-throughput side).
func TestBinarySmallerThanJSON(t *testing.T) {
	ds := genDataset(t, 42, 0.03)
	var jbuf, bbuf bytes.Buffer
	if err := ds.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteBinary(&bbuf); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(jbuf.Len()) / float64(bbuf.Len()); ratio < 4 {
		t.Errorf("binary only %.1fx smaller than JSON (%d vs %d bytes), want >= 4x",
			ratio, bbuf.Len(), jbuf.Len())
	}
}

// TestBinaryTruncationRejected cuts a valid stream at every prefix length
// and requires a loud error: a truncated file must never decode as a
// silently shorter dataset.
func TestBinaryTruncationRejected(t *testing.T) {
	// Hand-built rather than synthetic: the stream stays a few hundred
	// bytes, so the exhaustive per-byte scan covers every decode state
	// (header, POI table, frames, sentinel, trailer) in milliseconds.
	base := geo.LatLon{Lat: 34.4208, Lon: -119.6982}
	ds := &trace.Dataset{
		Name: "trunc",
		POIs: []poi.POI{
			{ID: 0, Name: "A", Category: poi.Food, Loc: base, Popularity: 2},
			{ID: 1, Name: "B", Category: poi.Shop, Loc: geo.Destination(base, 90, 400)},
		},
		Users: []*trace.User{
			{
				ID:   0,
				Days: 1,
				GPS:  trace.GPSTrace{{T: 0, Loc: base}, {T: 60, Loc: base, Indoor: true}},
				Checkins: trace.CheckinTrace{
					{T: 30, POIID: 0, POIName: "A", Category: poi.Food, Loc: base, Truth: trace.LabelHonest},
				},
			},
			{ID: 1, Days: 2},
		},
	}
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for n := 0; n < len(raw); n++ {
		if _, err := trace.ReadBinary(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation at byte %d/%d decoded without error", n, len(raw))
		}
	}
	if _, err := trace.ReadBinary(bytes.NewReader(raw)); err != nil {
		t.Fatalf("full stream failed to decode: %v", err)
	}
}

// TestForgedFrameLengthAllocBounded: on the buffered read path (gzip
// shards, uploads, spool files) a frame that declares the maximum length
// and then ends must fail as truncated, and the read must allocate in
// proportion to the bytes that arrived, not to the declared length.
func TestForgedFrameLengthAllocBounded(t *testing.T) {
	ds := &trace.Dataset{
		Name: "forged",
		POIs: []poi.POI{{ID: 0, Name: "A", Category: poi.Food, Loc: geo.LatLon{Lat: 34.4208, Lon: -119.6982}}},
	}
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	// Drop the end-of-stream sentinel and the zero user count, then
	// declare a 1 GiB frame with nothing behind it.
	raw := buf.Bytes()[:buf.Len()-2]
	raw = binary.AppendUvarint(raw, 1<<30)
	sr, err := trace.NewStreamReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = sr.NextFrame()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("NextFrame on a forged length = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("NextFrame allocated %d bytes for a frame with no payload, want < 4 MiB", got)
	}
}

// TestBinaryCorruptHeaderRejected covers the header failure modes: bad
// magic, unsupported version, and absurd table sizes from corrupt counts.
func TestBinaryCorruptHeaderRejected(t *testing.T) {
	ds := genDataset(t, 5, 0.02)
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	bad := append([]byte(nil), raw...)
	copy(bad, "JUNK")
	if _, err := trace.ReadBinary(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}

	bad = append([]byte(nil), raw...)
	bad[4] = 99 // version varint
	if _, err := trace.ReadBinary(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: err = %v", err)
	}

	// A giant string length must be rejected before any allocation.
	bad = append([]byte(nil), raw[:5]...)
	bad = append(bad, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // name length ~ 2^48
	if _, err := trace.ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("oversized name length accepted")
	}
}

// TestStreamWriterRejectsInvalid pins the writer-side validation:
// duplicate user IDs, checkins claiming unknown POIs, and invalid traces
// must fail at write time, not poison a reader later.
func TestStreamWriterRejectsInvalid(t *testing.T) {
	base := geo.LatLon{Lat: 34.4208, Lon: -119.6982}
	pois := []poi.POI{{ID: 0, Name: "A", Category: poi.Food, Loc: base}}
	sw, err := trace.NewStreamWriter(io.Discard, "x", pois)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteUser(&trace.User{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteUser(&trace.User{ID: 1}); err == nil {
		t.Error("duplicate user ID accepted")
	}
	if err := sw.WriteUser(&trace.User{
		ID:       2,
		Checkins: trace.CheckinTrace{{T: 0, POIID: 5, Loc: base}},
	}); err == nil {
		t.Error("checkin claiming unknown POI accepted")
	}
	if err := sw.WriteUser(&trace.User{
		ID:  3,
		GPS: trace.GPSTrace{{T: 100, Loc: base}, {T: 50, Loc: base}},
	}); err == nil {
		t.Error("out-of-order GPS trace accepted")
	}
	// Bad POI table fails before any frame is written.
	if _, err := trace.NewStreamWriter(io.Discard, "x", []poi.POI{{ID: 7, Loc: base}}); err == nil {
		t.Error("bad POI numbering accepted")
	}
}

// TestStreamReaderDuplicateIDRejected splices a user frame into a stream
// twice so both frames carry the same ID and requires the reader to
// notice.
func TestStreamReaderDuplicateIDRejected(t *testing.T) {
	writeStream := func(users ...*trace.User) []byte {
		var buf bytes.Buffer
		sw, err := trace.NewStreamWriter(&buf, "dup", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range users {
			if err := sw.WriteUser(u); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Same header prefix in both streams; the empty one is header +
	// 1-byte sentinel + 1-byte count, which locates the frame bytes.
	empty := writeStream()
	one := writeStream(&trace.User{ID: 4, Days: 1})
	hdrLen := len(empty) - 2
	frame := one[hdrLen : len(one)-2]

	dup := append([]byte(nil), one[:hdrLen]...)
	dup = append(dup, frame...)
	dup = append(dup, frame...)
	dup = append(dup, 0x00, 0x02) // sentinel, user count 2
	sr, err := trace.NewStreamReader(bytes.NewReader(dup))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err == nil || !strings.Contains(err.Error(), "duplicate user ID") {
		t.Errorf("duplicate user ID not rejected: %v", err)
	}
}

// TestSaveLoadBinaryFile exercises the file layer: .bin and .bin.gz
// suffixes select the binary codec, and LoadFile sniffs the encoding from
// magic bytes even when the suffix lies.
func TestSaveLoadBinaryFile(t *testing.T) {
	dir := t.TempDir()
	ds := binaryRoundTrip(t, genDataset(t, 7, 0.02)) // on the E7 grid
	for _, name := range []string{"ds.bin", "ds.bin.gz"} {
		path := filepath.Join(dir, name)
		if err := ds.SaveFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st, err := trace.OpenStream(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f := st.Format
		if err := st.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f != trace.FormatBinary {
			t.Fatalf("%s: detected %v, want binary", name, f)
		}
		got, err := trace.LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(ds, got) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
	// An empty file is neither format: OpenStream must error, not
	// open it as JSON.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := trace.OpenStream(empty); err == nil {
		st.Close()
		t.Errorf("empty file opened as a valid %v dataset", st.Format)
	}

	// Misleading suffix: binary bytes under a .json name still load.
	lying := filepath.Join(dir, "lying.json")
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lying, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := trace.LoadFile(lying)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, got) {
		t.Fatal("sniffed load mismatch")
	}
}

// TestOpenStreamBothFormats: every way a dataset file opens yields the
// same header and users — JSON, and GSB1 through OpenStream and
// ShardSet.OpenShard, each mapped, buffered (SetMmapDisabled) and gzip.
// On each GSB1 path a shard's end checks the manifest's user count, and
// keeps failing; Close is safe twice; a detached frame decodes after
// Close; and the open errors keep their wording.
func TestOpenStreamBothFormats(t *testing.T) {
	ds := binaryRoundTrip(t, genDataset(t, 11, 0.02))
	jsonPath := filepath.Join(t.TempDir(), "ds.json.gz")
	if err := ds.SaveFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	readAll := func(src trace.UserSource) []*trace.User {
		var users []*trace.User
		for {
			u, err := src.Next()
			if err == io.EOF {
				return users
			}
			if err != nil {
				t.Fatal(err)
			}
			users = append(users, u)
		}
	}
	js, err := trace.OpenStream(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if js.Format != trace.FormatJSON {
		t.Fatalf("JSON file opened as %v", js.Format)
	}
	want := readAll(js)
	js.Close()
	if !reflect.DeepEqual(want, ds.Users) {
		t.Fatal("JSON stream differs from the dataset")
	}

	// The header of TestValidateFileErrors: one venue of category 99.
	badHdr := binary.AppendVarint([]byte("GSB1\x01\x03bad\x01\x01p"), 99)
	badHdr = append(badHdr, make([]byte, 2+8)...)
	const badPOI = "trace: invalid POI table: poi: POI 0 has invalid category 99"

	for _, tc := range []struct {
		name       string
		mapped, gz bool
	}{{"mapped", true, false}, {"buffered", false, false}, {"gzip", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			defer trace.SetMmapDisabled(trace.SetMmapDisabled(!tc.mapped))
			dir := t.TempDir()
			file := filepath.Join(dir, "ds.bin")
			if tc.gz {
				file += ".gz"
			}
			if err := ds.SaveFile(file); err != nil {
				t.Fatal(err)
			}
			manifest, err := ds.SaveShards(dir, trace.ShardOptions{Shards: 1, Compress: tc.gz})
			if err != nil {
				t.Fatal(err)
			}
			ss, err := trace.OpenShardSet(manifest)
			if err != nil {
				t.Fatal(err)
			}
			shard := ss.Manifest.Shards[0].File
			opens := []struct {
				name string
				open func() (*trace.StreamReader, error)
			}{
				{"OpenStream", func() (*trace.StreamReader, error) {
					st, err := trace.OpenStream(file)
					if err != nil {
						return nil, err
					}
					if st.Format != trace.FormatBinary || st.Name != ds.Name || !reflect.DeepEqual(st.POIs, ds.POIs) {
						t.Errorf("OpenStream: header %v %q differs", st.Format, st.Name)
					}
					return st.Frames().(*trace.StreamReader), nil
				}},
				{"OpenShard", func() (*trace.StreamReader, error) { return ss.OpenShard(0) }},
			}
			for _, o := range opens {
				r, err := o.open()
				if err != nil {
					t.Fatalf("%s: %v", o.name, err)
				}
				if r.Name() != ds.Name || !reflect.DeepEqual(r.POIs(), ds.POIs) {
					t.Errorf("%s: header differs", o.name)
				}
				if got := readAll(r); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: users differ from the JSON stream", o.name)
				}
				if err := r.Close(); err != nil {
					t.Errorf("%s: Close: %v", o.name, err)
				}
				if err := r.Close(); err != nil {
					t.Errorf("%s: second Close: %v", o.name, err)
				}

				r, err = o.open()
				if err != nil {
					t.Fatal(err)
				}
				f, err := r.NextFrame()
				if err != nil {
					t.Fatal(err)
				}
				f = f.Detach()
				r.Close()
				if u, err := r.DecodeFrame(f); err != nil || !reflect.DeepEqual(u, want[0]) {
					t.Errorf("%s: detached frame after Close: %v", o.name, err)
				}
			}

			// A manifest count off by one fails at the verified end, and
			// again on the next call.
			mutateManifest(t, manifest, func(m *trace.Manifest) { m.Users++; m.Shards[0].Users++ })
			off, err := trace.OpenShardSet(manifest)
			if err != nil {
				t.Fatal(err)
			}
			r, err := off.OpenShard(0)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for {
				f, err := r.NextFrame()
				if err != nil {
					break
				}
				r.Recycle(f)
			}
			countErr := fmt.Sprintf("trace: shard has %d users, manifest says %d", len(want), len(want)+1)
			for call := 0; call < 2; call++ {
				if _, err := r.NextFrame(); fmt.Sprint(err) != countErr {
					t.Errorf("end call %d: %q, want %q", call, fmt.Sprint(err), countErr)
				}
			}

			// Open errors keep each caller's wording.
			bad := badHdr
			if tc.gz {
				var buf bytes.Buffer
				zw := gzip.NewWriter(&buf)
				zw.Write(badHdr)
				zw.Close()
				bad = buf.Bytes()
			}
			for _, path := range []string{file, filepath.Join(dir, shard)} {
				if err := os.WriteFile(path, bad, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := trace.OpenStream(file); fmt.Sprint(err) != badPOI {
				t.Errorf("OpenStream: %q, want %q", fmt.Sprint(err), badPOI)
			}
			if _, err := ss.OpenShard(0); fmt.Sprint(err) != "trace: shard "+shard+": "+badPOI {
				t.Errorf("OpenShard: %q", fmt.Sprint(err))
			}
			os.Remove(file)
			os.Remove(filepath.Join(dir, shard))
			if _, err := trace.OpenStream(file); !strings.HasPrefix(fmt.Sprint(err), "trace: open dataset: ") {
				t.Errorf("OpenStream of a missing file: %q", fmt.Sprint(err))
			}
			if _, err := ss.OpenShard(0); !strings.HasPrefix(fmt.Sprint(err), "trace: open shard "+shard+": ") {
				t.Errorf("OpenShard of a missing file: %q", fmt.Sprint(err))
			}
		})
	}
}
