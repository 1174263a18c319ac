package wire

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"testing"
)

var testFormat = Format{Magic: [4]byte{'T', 'S', 'T', '1'}, Version: 1, Limit: 1 << 10, Prefix: "test", Noun: "a test stream", Payload: "payload"}

// stream encodes a container whose payloads each hold a string and
// the same string as a label.
func stream(payloads ...string) []byte {
	var e Enc
	e.Header(&testFormat)
	e.Str("name")
	for _, p := range payloads {
		var pe Enc
		pe.Str(p)
		pe.Label(p)
		e.Uvarint(uint64(len(pe.Buf)))
		e.Buf = append(e.Buf, pe.Buf...)
	}
	e.Trailer(uint64(len(payloads)))
	return e.Buf
}

// readAll reads a container through Reader and returns its payloads'
// strings and labels and the error that ended it (nil for a clean end).
func readAll(data []byte) ([]string, error) {
	r := NewReader(&testFormat, bytes.NewReader(data), 0)
	if err := r.Header(); err != nil {
		return nil, err
	}
	if name := r.Str(); name != "name" || r.Err() != nil {
		return nil, errors.Join(errors.New("bad name"), r.Err())
	}
	var got []string
	var buf []byte
	for {
		var err error
		buf, err = r.Next(buf)
		if err == io.EOF {
			return got, nil
		}
		if err != nil {
			return got, err
		}
		d := Dec{Data: buf, Prefix: "test payload"}
		s, l := d.Str(), d.Label()
		if d.Err != nil || d.Pos != len(buf) || s != l {
			return got, errors.Join(errors.New("bad payload"), d.Err)
		}
		got = append(got, s)
	}
}

func TestRoundTripAndEnd(t *testing.T) {
	payloads := []string{"honest", "", "weird", "other"}
	data := stream(payloads...)
	got, err := readAll(data)
	if err != nil || len(got) != len(payloads) {
		t.Fatalf("read %q, %v; want %q", got, err, payloads)
	}
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	w.Write(data)
	w.Close()
	br, gz, err := Sniff(&buf, 16)
	if err != nil || gz == nil {
		t.Fatalf("Sniff of gzip input: %v, closer %v", err, gz)
	}
	if all, err := io.ReadAll(br); err != nil || !bytes.Equal(all, data) {
		t.Fatalf("Sniff inflated %d bytes, %v; want %d", len(all), err, len(data))
	}

	// Every cut fails, and so does a byte after the trailer; a cut
	// inside the container is never a clean end.
	for n := 0; n < len(data); n++ {
		if _, err := readAll(data[:n]); err == nil {
			t.Fatalf("cut at %d of %d read cleanly", n, len(data))
		}
	}
	if _, err := readAll(append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("a byte after the trailer read cleanly")
	}
	// A wrong count fails.
	bad := bytes.Clone(data)
	bad[len(bad)-1]++
	if _, err := readAll(bad); err == nil {
		t.Fatal("a wrong trailer count read cleanly")
	}
}

// TestEndBytesMatchesEnd: the in-memory trailer check gives the
// buffered reader's verdict for every suffix after a sentinel.
func TestEndBytesMatchesEnd(t *testing.T) {
	for _, rest := range [][]byte{nil, {3}, {3, 0}, {2}, {0x80}, {0x83, 0x00}} {
		want := NewReader(&testFormat, bytes.NewReader(rest), 0).End(3)
		got := testFormat.EndBytes(rest, 3)
		if (got == io.EOF) != (want == io.EOF) {
			t.Errorf("after sentinel %x: EndBytes %v, End %v", rest, got, want)
		}
	}
}

// TestDecLoose: non-canonical varints and escaped known labels are
// flagged; canonical payloads are not.
func TestDecLoose(t *testing.T) {
	var e Enc
	e.Uvarint(300)
	e.Varint(-5)
	e.Label("driveby")
	e.Label("unlisted")
	d := Dec{Data: e.Buf}
	if d.Uvarint() != 300 || d.Varint() != -5 || d.Label() != "driveby" || d.Label() != "unlisted" || d.Err != nil || d.Loose {
		t.Fatalf("canonical payload: err %v, loose %v", d.Err, d.Loose)
	}
	padded := Dec{Data: []byte{0x81, 0x00}}
	if padded.Uvarint() != 1 || padded.Err != nil || !padded.Loose {
		t.Errorf("zero-padded uvarint: err %v, loose %v; want loose", padded.Err, padded.Loose)
	}
	escaped := Dec{Data: append([]byte{byte(len(labels)), 5}, "other"...)}
	if escaped.Label() != "other" || escaped.Err != nil || !escaped.Loose {
		t.Errorf("escaped known label: err %v, loose %v; want loose", escaped.Err, escaped.Loose)
	}
}
