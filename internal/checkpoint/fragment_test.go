package checkpoint

import (
	"bytes"
	"io"
	"testing"
)

// writeTestFragment builds a small two-section fragment and returns its
// bytes.
func writeTestFragment(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := newFragmentWriter(&buf, map[string]string{
		"shard":    "sha256:abc",
		"manifest": "sha256:def",
		"params":   "p1",
	})
	if err != nil {
		t.Fatalf("newFragmentWriter: %v", err)
	}
	if err := fw.section("records"); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][]byte{[]byte("alpha"), {}, []byte("gamma")} {
		if err := fw.chunk(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.section("meta"); err != nil {
		t.Fatal(err)
	}
	if err := fw.chunk([]byte("meta-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := fw.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	return buf.Bytes()
}

func TestFragmentRoundTrip(t *testing.T) {
	data := writeTestFragment(t)

	fr, err := newFragmentReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("newFragmentReader: %v", err)
	}
	want := map[string]string{"shard": "sha256:abc", "manifest": "sha256:def", "params": "p1"}
	for k, v := range want {
		if fr.keys[k] != v {
			t.Fatalf("key %q = %q, want %q", k, fr.keys[k], v)
		}
	}

	name, err := fr.nextSection()
	if err != nil || name != "records" {
		t.Fatalf("section 1 = %q, %v", name, err)
	}
	var got [][]byte
	for {
		c, err := fr.nextChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("nextChunk: %v", err)
		}
		got = append(got, append([]byte(nil), c...))
	}
	if len(got) != 3 || string(got[0]) != "alpha" || len(got[1]) != 0 || string(got[2]) != "gamma" {
		t.Fatalf("records section chunks = %q", got)
	}

	name, err = fr.nextSection()
	if err != nil || name != "meta" {
		t.Fatalf("section 2 = %q, %v", name, err)
	}
	c, err := fr.nextChunk()
	if err != nil || string(c) != "meta-bytes" {
		t.Fatalf("meta chunk = %q, %v", c, err)
	}

	if _, err := fr.nextSection(); err != io.EOF {
		t.Fatalf("final nextSection = %v, want io.EOF", err)
	}
	// Idempotent at the end.
	if _, err := fr.nextSection(); err != io.EOF {
		t.Fatalf("repeated nextSection = %v, want io.EOF", err)
	}
}

// nextSection must skip any unread chunks of the open section, and the
// trailer must still verify.
func TestFragmentSkipSection(t *testing.T) {
	data := writeTestFragment(t)
	fr, err := newFragmentReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if name, err := fr.nextSection(); err != nil || name != "records" {
		t.Fatalf("section 1 = %q, %v", name, err)
	}
	if name, err := fr.nextSection(); err != nil || name != "meta" {
		t.Fatalf("section 2 after skip = %q, %v", name, err)
	}
	if _, err := fr.nextSection(); err != io.EOF {
		t.Fatalf("final nextSection after skips = %v, want io.EOF", err)
	}
}

// Deterministic output: two writes of the same logical fragment are
// byte-identical (keys are sorted, nothing nondeterministic is added).
func TestFragmentDeterministic(t *testing.T) {
	a := writeTestFragment(t)
	b := writeTestFragment(t)
	if !bytes.Equal(a, b) {
		t.Fatal("identical fragments encode to different bytes")
	}
}

// Every proper prefix of a valid fragment must fail decoding — the
// trailer makes truncation detectable at any cut point — and so must
// the fragment with a byte appended.
func TestFragmentTruncation(t *testing.T) {
	data := writeTestFragment(t)
	for cut := 0; cut < len(data); cut++ {
		err := consumeFragment(data[:cut])
		if err == nil {
			t.Fatalf("fragment truncated to %d/%d bytes decoded cleanly", cut, len(data))
		}
	}
	if err := consumeFragment(data); err != nil {
		t.Fatalf("full fragment failed: %v", err)
	}
	// The input ends at the trailer.
	if err := consumeFragment(append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("fragment with a byte after its trailer decoded cleanly")
	}
}

// consumeFragment decodes an entire fragment, returning the first error.
func consumeFragment(data []byte) error {
	fr, err := newFragmentReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		_, err := fr.nextSection()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for {
			if _, err := fr.nextChunk(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
		}
	}
}

func TestFragmentRejectsBadMagicAndVersion(t *testing.T) {
	data := writeTestFragment(t)

	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := newFragmentReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), data...)
	bad[4] = 99 // version uvarint
	if _, err := newFragmentReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestFragmentWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	fw, err := newFragmentWriter(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.chunk([]byte("x")); err == nil {
		t.Fatal("chunk outside a section accepted")
	}
	if err := fw.section(""); err == nil {
		t.Fatal("empty section name accepted")
	}
	if err := fw.section("s"); err != nil {
		t.Fatal(err)
	}
	if err := fw.finish(); err != nil {
		t.Fatal(err)
	}
	if err := fw.section("late"); err == nil {
		t.Fatal("section after Finish accepted")
	}
	if err := fw.chunk([]byte("late")); err == nil {
		t.Fatal("chunk after Finish accepted")
	}
}
