package trace

// Differential oracle for the binary frame decoder. referenceDecodeFrame
// is the decoder as it stood before the fused GPS kernel: every field
// through wire.Dec's sticky-error helpers, slices grown by append, then
// a separate User.Validate pass. DecodeFrame must agree with it on every
// input: a frame the reference accepts decodes to an equal user (bit-
// equal coordinates and floats), and a frame it rejects fails with the
// same error text.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
	"geosocial/internal/wire"
)

// referenceDecodeFrame decodes one frame payload the straightforward
// way, for a stream whose POI table has numPOIs entries and whose name
// intern table is names.
func referenceDecodeFrame(numPOIs int, names map[string]string, data []byte) (*User, error) {
	d := wire.Dec{Data: data, Prefix: "trace: binary frame"}
	u := &User{}
	u.ID = int(d.Varint())
	u.Days = d.F64()
	u.Profile.Friends = int(d.Varint())
	u.Profile.Badges = int(d.Varint())
	u.Profile.Mayors = int(d.Varint())
	u.Profile.CheckinsPerDay = d.F64()

	nGPS := d.Uvarint()
	var t int64
	var lat, lon int64
	for i := uint64(0); i < nGPS && d.Err == nil; i++ {
		if i == 0 {
			t = d.Varint()
		} else {
			t += int64(d.Uvarint())
		}
		lat += d.Varint()
		lon += d.Varint()
		indoor := d.Byte()
		u.GPS = append(u.GPS, GPSPoint{
			T:      t,
			Loc:    geo.LatLon{Lat: fromE7(lat), Lon: fromE7(lon)},
			Indoor: indoor != 0,
		})
	}

	nCk := d.Uvarint()
	t = 0
	for i := uint64(0); i < nCk && d.Err == nil; i++ {
		if i == 0 {
			t = d.Varint()
		} else {
			t += int64(d.Uvarint())
		}
		c := Checkin{T: t}
		c.POIID = int(d.Uvarint())
		c.POIName = d.StrIntern(names)
		c.Category = poi.Category(d.Varint())
		c.Loc = latLon(&d)
		c.Truth = Label(d.Label())
		u.Checkins = append(u.Checkins, c)
	}
	if d.Err != nil {
		return nil, d.Err
	}
	if d.Pos != len(d.Data) {
		return nil, fmt.Errorf("trace: binary frame for user %d has %d trailing bytes", u.ID, len(d.Data)-d.Pos)
	}
	if err := u.Validate(); err != nil {
		return nil, fmt.Errorf("trace: invalid dataset: %w", err)
	}
	if err := u.validateRefs(numPOIs); err != nil {
		return nil, fmt.Errorf("trace: invalid dataset: %w", err)
	}
	return u, nil
}

// userDiff describes the first difference between two decoded users, or
// returns "" when they are equal down to the float bits.
func userDiff(a, b *User) string {
	bits := math.Float64bits
	switch {
	case a.ID != b.ID:
		return fmt.Sprintf("ID %d vs %d", a.ID, b.ID)
	case bits(a.Days) != bits(b.Days):
		return fmt.Sprintf("Days %v vs %v", a.Days, b.Days)
	case a.Profile.Friends != b.Profile.Friends || a.Profile.Badges != b.Profile.Badges ||
		a.Profile.Mayors != b.Profile.Mayors ||
		bits(a.Profile.CheckinsPerDay) != bits(b.Profile.CheckinsPerDay):
		return fmt.Sprintf("Profile %+v vs %+v", a.Profile, b.Profile)
	case len(a.GPS) != len(b.GPS):
		return fmt.Sprintf("%d vs %d fixes", len(a.GPS), len(b.GPS))
	case len(a.Checkins) != len(b.Checkins):
		return fmt.Sprintf("%d vs %d checkins", len(a.Checkins), len(b.Checkins))
	}
	for i, p := range a.GPS {
		q := b.GPS[i]
		if p.T != q.T || p.Indoor != q.Indoor ||
			bits(p.Loc.Lat) != bits(q.Loc.Lat) || bits(p.Loc.Lon) != bits(q.Loc.Lon) {
			return fmt.Sprintf("fix %d: %+v vs %+v", i, p, q)
		}
	}
	for i, c := range a.Checkins {
		d := b.Checkins[i]
		if c.T != d.T || c.POIID != d.POIID || c.POIName != d.POIName || c.Category != d.Category ||
			c.Truth != d.Truth || bits(c.Loc.Lat) != bits(d.Loc.Lat) || bits(c.Loc.Lon) != bits(d.Loc.Lon) {
			return fmt.Sprintf("checkin %d: %+v vs %+v", i, c, d)
		}
	}
	return ""
}

// checkAgainstReference decodes one frame payload with DecodeFrame and
// with the reference, and fails t unless they agree.
func checkAgainstReference(t *testing.T, sr *StreamReader, data []byte) {
	t.Helper()
	want, wantErr := referenceDecodeFrame(len(sr.pois), sr.names, data)
	got, gotErr := sr.DecodeFrame(Frame{data: data})
	switch {
	case wantErr != nil && gotErr == nil:
		t.Fatalf("frame % x: reference fails with %q, DecodeFrame accepts", data, wantErr)
	case wantErr == nil && gotErr != nil:
		t.Fatalf("frame % x: reference accepts, DecodeFrame fails with %q", data, gotErr)
	case wantErr != nil:
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("frame % x: error\n got %q\nwant %q", data, gotErr, wantErr)
		}
	default:
		if diff := userDiff(got, want); diff != "" {
			t.Fatalf("frame % x: users differ: %s", data, diff)
		}
		sr.RecycleUser(got)
	}
}

// oracleReader opens a stream over testDataset's header, whose two-POI
// table and name intern table the differential tests decode against.
func oracleReader(t testing.TB) *StreamReader {
	t.Helper()
	var buf bytes.Buffer
	if err := testDataset().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReaderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// rawFix is one GPS fix as wire integers, free of any invariant.
type rawFix struct {
	t, lat, lon int64
	indoor      byte
}

// rawFrame builds a frame payload from wire integers without the
// validation StreamWriter applies. pad widens the GPS varints to
// non-canonical encodings of pad bytes (0 keeps them canonical).
type rawFrame struct {
	id       int64
	fixes    []rawFix
	checkins []Checkin
	pad      int
}

// putUvarint appends v as a uvarint of at least width bytes, zero-padded
// the way binary.Uvarint still accepts.
func putUvarint(buf []byte, v uint64, width int) []byte {
	start := len(buf)
	buf = binary.AppendUvarint(buf, v)
	for len(buf)-start < width {
		buf[len(buf)-1] |= 0x80
		buf = append(buf, 0)
	}
	return buf
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// frameHead starts a frame payload: the user fields ahead of the GPS
// count.
func frameHead(id int64) wire.Enc {
	var e wire.Enc
	e.Varint(id)
	e.F64(1.5)
	e.Varint(3)
	e.Varint(2)
	e.Varint(1)
	e.F64(0.25)
	return e
}

func (f rawFrame) bytes() []byte {
	e := frameHead(f.id)
	e.Uvarint(uint64(len(f.fixes)))
	var prev rawFix
	for i, p := range f.fixes {
		if i == 0 {
			e.Buf = putUvarint(e.Buf, zigzag(p.t), f.pad)
		} else {
			e.Buf = putUvarint(e.Buf, uint64(p.t-prev.t), f.pad)
		}
		e.Buf = putUvarint(e.Buf, zigzag(p.lat-prev.lat), f.pad)
		e.Buf = putUvarint(e.Buf, zigzag(p.lon-prev.lon), f.pad)
		e.Byte(p.indoor)
		prev = p
	}
	e.Uvarint(uint64(len(f.checkins)))
	var prevT int64
	for i, c := range f.checkins {
		if i == 0 {
			e.Varint(c.T)
		} else {
			e.Uvarint(uint64(c.T - prevT))
		}
		prevT = c.T
		e.Uvarint(uint64(c.POIID))
		e.Str(c.POIName)
		e.Varint(int64(c.Category))
		putLatLon(&e, c.Loc)
		e.Label(string(c.Truth))
	}
	return e.Buf
}

// deltaOfBytes returns a random non-negative integer whose uvarint
// takes exactly n bytes (n in 1..9).
func deltaOfBytes(r *rand.Rand, n int) uint64 {
	lo := uint64(0)
	if n > 1 {
		lo = 1 << (7 * (n - 1))
	}
	return lo + uint64(r.Int63n(int64(1<<(7*n)-lo)))
}

// randomFixes draws a valid trace of n fixes whose time, lat and lon
// deltas take 1, 2, 3 or 4+ bytes on the wire.
func randomFixes(r *rand.Rand, n int) []rawFix {
	const maxLat, maxLon = 90 * coordScale, 180 * coordScale
	step := func(v int64, max int64) int64 {
		// zigzag doubles magnitudes, so a k-byte zigzag delta is about
		// half a k-byte uvarint.
		d := int64(deltaOfBytes(r, 1+r.Intn(4)) / 2)
		if r.Intn(2) == 0 {
			d = -d
		}
		if v+d > max || v+d < -max {
			d = -d
		}
		return v + d
	}
	fixes := make([]rawFix, n)
	p := rawFix{t: r.Int63n(1<<40) - 1<<39, lat: r.Int63n(2*maxLat) - maxLat, lon: r.Int63n(2*maxLon) - maxLon}
	for i := range fixes {
		if i > 0 {
			p.t += int64(deltaOfBytes(r, 1+r.Intn(4)))
			p.lat, p.lon = step(p.lat, maxLat), step(p.lon, maxLon)
		}
		p.indoor = byte(r.Intn(2))
		fixes[i] = p
	}
	return fixes
}

// oracleFrames returns the differential test's frame payloads: random
// valid users and hand-made failure cases.
func oracleFrames(r *rand.Rand) [][]byte {
	const maxLat, maxLon = 90 * coordScale, 180 * coordScale
	base := geo.LatLon{Lat: 34.4208, Lon: -119.6982}
	var frames [][]byte
	add := func(f rawFrame) { frames = append(frames, f.bytes()) }

	// Random valid users, canonical and zero-padded, some with checkins.
	for i := 0; i < 60; i++ {
		f := rawFrame{id: int64(i), fixes: randomFixes(r, r.Intn(40))}
		if i%3 == 0 {
			f.pad = 2 + r.Intn(5) // inline (2, 3 bytes) and fallback widths
		}
		if i%2 == 0 && len(f.fixes) > 0 {
			f.checkins = []Checkin{
				{T: f.fixes[0].t, POIID: 0, POIName: "A", Category: poi.Food, Loc: base, Truth: LabelHonest},
				{T: f.fixes[0].t + 60, POIID: 1, POIName: "unlisted", Category: poi.Shop, Loc: base, Truth: "custom"},
			}
		}
		add(f)
	}

	// Coordinates at and one tick past the valid range, alone and after
	// a valid fix.
	for _, lat := range []int64{maxLat, maxLat + 1, -maxLat, -maxLat - 1, 0} {
		for _, lon := range []int64{maxLon, maxLon + 1, -maxLon, -maxLon - 1, 0} {
			add(rawFrame{id: 1, fixes: []rawFix{{t: 5, lat: lat, lon: lon}}})
			add(rawFrame{id: 2, fixes: []rawFix{{t: 5}, {t: 65, lat: lat, lon: lon, indoor: 1}}})
		}
	}

	// Out-of-order times: a small step back, and a delta whose uvarint
	// has the sign bit set; then the same followed by an invalid fix.
	add(rawFrame{id: 3, fixes: []rawFix{{t: 100}, {t: 99}, {t: 200}}})
	add(rawFrame{id: 4, fixes: []rawFix{{t: 100}, {t: math.MinInt64 + 7}}})
	add(rawFrame{id: 5, fixes: []rawFix{{t: 100}, {t: 50}, {t: 60, lat: maxLat + 1}}})
	// An int64 overflow of the running time and of the running latitude.
	add(rawFrame{id: 6, fixes: []rawFix{{t: math.MaxInt64 - 1}, {t: math.MinInt64 + 1}}})
	add(rawFrame{id: 7, fixes: []rawFix{{lat: math.MaxInt64 - 1}, {t: 60, lat: math.MinInt64 + 1}}})

	// Every truncation of a valid frame ends inside a fix somewhere (or
	// inside a checkin, or right before the trailing count); a few
	// appended bytes are trailing garbage.
	whole := rawFrame{id: 8, fixes: randomFixes(r, 12), checkins: []Checkin{
		{T: 0, POIID: 1, POIName: "B", Category: poi.Shop, Loc: base, Truth: LabelRemote},
	}}
	whole.checkins[0].T = whole.fixes[11].t
	full := whole.bytes()
	for n := 0; n < len(full); n++ {
		frames = append(frames, full[:n])
	}
	frames = append(frames, append(append([]byte(nil), full...), 0, 0))

	// A 10-byte varint that overflows 64 bits, as each of a fix's three
	// varints, with an invalid coordinate in the fix before it (the
	// decode error must win over the invariant error), both far from and
	// near the frame's end; then as the first fix's time, a varint.
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	for _, tail := range []int{0, maxFixBytes} {
		for field := 0; field < 3; field++ {
			e := frameHead(9)
			e.Uvarint(3)
			e.Varint(0)
			e.Varint(maxLat + 1)
			e.Varint(0)
			e.Byte(0)
			e.Uvarint(60)
			if field > 0 {
				e.Varint(-maxLat - 1)
			}
			if field > 1 {
				e.Varint(0)
			}
			frames = append(frames, append(append(e.Buf, overflow...), make([]byte, tail)...))
		}
		e := frameHead(10)
		e.Uvarint(1)
		frames = append(frames, append(append(e.Buf, overflow...), make([]byte, tail)...))
	}

	// Random byte flips in valid frames.
	for i := 0; i < 200; i++ {
		f := rawFrame{id: int64(i), fixes: randomFixes(r, 1+r.Intn(10))}
		b := f.bytes()
		for k := 1 + r.Intn(3); k > 0; k-- {
			b[r.Intn(len(b))] ^= byte(1 << r.Intn(8))
		}
		frames = append(frames, b)
	}
	return frames
}

// TestDecodeFrameMatchesReference runs the differential comparison
// over oracleFrames.
func TestDecodeFrameMatchesReference(t *testing.T) {
	sr := oracleReader(t)
	frames := oracleFrames(rand.New(rand.NewSource(1)))
	var accepted, rejected int
	for _, data := range frames {
		checkAgainstReference(t, sr, data)
		if _, err := referenceDecodeFrame(len(sr.pois), sr.names, data); err == nil {
			accepted++
		} else {
			rejected++
		}
	}
	// The case list must exercise both outcomes in earnest.
	if accepted < 60 || rejected < 60 {
		t.Fatalf("%d frames accepted, %d rejected: the case list lost its coverage", accepted, rejected)
	}
}

// TestForgedCountAllocBounded: a 64-byte frame that declares 2^40 GPS
// fixes, or 2^40 checkins, must fail as the reference does and size its
// slices by the bytes behind the count, not by the count.
func TestForgedCountAllocBounded(t *testing.T) {
	sr := oracleReader(t)
	gps := frameHead(1)
	gps.Uvarint(1 << 40)
	cks := frameHead(1)
	cks.Uvarint(0)
	cks.Uvarint(1 << 40)
	for name, e := range map[string]wire.Enc{"fixes": gps, "checkins": cks} {
		data := append(e.Buf, make([]byte, 64-len(e.Buf))...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		u, err := sr.DecodeFrame(Frame{data: data})
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: frame declaring 2^40 records decoded to %d fixes, %d checkins", name, len(u.GPS), len(u.Checkins))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: DecodeFrame allocated %d bytes for a 64-byte frame, want < 64 KiB", name, got)
		}
		checkAgainstReference(t, sr, data)
	}
}

// TestForgedPOICountAllocBounded: a 64-byte stream whose header declares
// 2^40 POIs must fail on the missing entries having sized its POI table
// by the bytes behind the count, not by the count.
func TestForgedPOICountAllocBounded(t *testing.T) {
	data := append([]byte("GSB1"), byte(gsb1.Version), 1, 'x')
	data = binary.AppendUvarint(data, 1<<40)
	data = append(data, make([]byte, 64-len(data))...)
	br := bufio.NewReaderSize(bytes.NewReader(data), 1<<16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewStreamReader(br)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header declaring 2^40 POIs in 64 bytes accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("NewStreamReader allocated %d bytes for a 64-byte stream, want < 64 KiB", got)
	}
}

// FuzzDecodeFrame feeds arbitrary GSB1 streams (header, then frames)
// through the reader. Nothing may panic, and every frame must decode as
// the reference decodes it. Each frame's decode may allocate at most
// 24 bytes per frame byte, plus 1 KiB for the record and an error's
// text: forged counts must not buy memory. (The header's POI table is
// bounded separately, by TestForgedPOICountAllocBounded.)
func FuzzDecodeFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := testDataset().WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	stream := bytes.Clone(buf.Bytes())
	for n := 0; n <= len(stream); n++ {
		f.Add(stream[:n])
	}
	// The same header ahead of a few of the differential cases: an
	// empty dataset's stream is the header, the sentinel and a zero
	// user count.
	empty := testDataset()
	empty.Users = nil
	buf.Reset()
	if err := empty.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	hdr := buf.Bytes()[:buf.Len()-2]
	for _, data := range oracleFrames(rand.New(rand.NewSource(2)))[:80] {
		s := append([]byte(nil), hdr...)
		s = binary.AppendUvarint(s, uint64(len(data)))
		s = append(s, data...)
		s = append(s, 0, 1)
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewStreamReaderBytes(data)
		if err != nil {
			return
		}
		for i := 0; ; i++ {
			fr, err := sr.NextFrame()
			if err != nil {
				return
			}
			want, wantErr := referenceDecodeFrame(len(sr.pois), sr.names, fr.data)
			got, n, gotErr := decodeAllocs(sr, fr)
			// Decode allocates the same on every try, so only an overrun
			// that repeats is the decoder's: the fuzzing worker's own
			// goroutines may allocate inside one measured window.
			limit := 24*uint64(len(fr.data)) + 1<<10
			for try := 1; try < 3 && n > limit; try++ {
				if got != nil {
					sr.RecycleUser(got)
				}
				var again uint64
				got, again, gotErr = decodeAllocs(sr, fr)
				n = min(n, again)
			}
			if n > limit {
				t.Fatalf("frame %d: decoding %d bytes allocated %d, want <= %d", i, len(fr.data), n, limit)
			}
			switch {
			case (wantErr == nil) != (gotErr == nil):
				t.Fatalf("frame %d: DecodeFrame error %v, reference error %v", i, gotErr, wantErr)
			case wantErr != nil && wantErr.Error() != gotErr.Error():
				t.Fatalf("frame %d: error\n got %q\nwant %q", i, gotErr, wantErr)
			case wantErr == nil:
				if diff := userDiff(got, want); diff != "" {
					t.Fatalf("frame %d: users differ: %s", i, diff)
				}
				sr.RecycleUser(got)
			}
		}
	})
}

// BenchmarkDecodeFrame measures DecodeFrame, with its record recycled
// as the validation engine recycles it, on one frame shaped like a day
// of per-minute fixes: one-byte time deltas and lat/lon deltas of a few
// meters, which take two bytes each.
func BenchmarkDecodeFrame(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	fixes := make([]rawFix, 1440)
	p := rawFix{t: 1_600_000_000, lat: 344_208_000, lon: -1_196_982_000}
	for i := range fixes {
		p.t += 60
		p.lat += r.Int63n(1001) - 500
		p.lon += r.Int63n(1001) - 500
		fixes[i] = p
	}
	data := rawFrame{id: 1, fixes: fixes}.bytes()
	sr := oracleReader(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u, err := sr.DecodeFrame(Frame{data: data})
		if err != nil {
			b.Fatal(err)
		}
		sr.RecycleUser(u)
	}
}

// decodeAllocs decodes an in-memory frame (which stays valid for
// another decode) and reports the bytes the decode allocated.
func decodeAllocs(sr *StreamReader, fr Frame) (*User, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	u, err := sr.DecodeFrame(fr)
	runtime.ReadMemStats(&after)
	return u, after.TotalAlloc - before.TotalAlloc, err
}
