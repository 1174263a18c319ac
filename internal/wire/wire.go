// Package wire is the framing shared by every binary container the
// system writes: GSB1 datasets and shards (internal/trace), GSO1
// outcome logs (internal/outcome) and GSF1 checkpoint fragments
// (internal/checkpoint). It owns the primitives (uvarints, zigzag
// varints, little-endian float64s, length-prefixed strings and the
// ground-truth label table), the header check, the bounded payload
// read, the sentinel and count trailer with the end-of-input rule, and
// the gzip sniff. A container owns only what its payloads mean.
// docs/FORMAT.md, "Framing", documents the rules.
package wire

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
)

// Format describes one container: the magic and version its header
// carries, the cap on one payload's declared length, and the words its
// errors use.
type Format struct {
	Magic   [4]byte
	Version uint64
	// Limit caps a payload's declared length, so a corrupt prefix fails
	// before any read.
	Limit uint64
	// Prefix begins every error ("trace"), Noun completes "not ..." for
	// a wrong magic ("a binary dataset"), and Payload names one payload
	// ("binary frame").
	Prefix, Noun, Payload string
}

const (
	// maxString caps an encoded string, in a header or a payload, so a
	// corrupt length prefix cannot force a large allocation.
	maxString = 1 << 20
	// bufSize is a Reader's default buffer size.
	bufSize = 1 << 16
)

// labels is the ground-truth label table: a label's index is its wire
// code, and code len(labels) escapes a label the table lacks, which
// follows as a string.
var labels = [...]string{"", "honest", "superfluous", "remote", "driveby", "other"}

// --- encoding ---

// Enc appends wire primitives to Buf. A payload is built whole in
// memory, since its length prefix goes first.
type Enc struct{ Buf []byte }

func (e *Enc) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }
func (e *Enc) Varint(v int64)   { e.Buf = binary.AppendVarint(e.Buf, v) }
func (e *Enc) F64(v float64)    { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(v)) }
func (e *Enc) Byte(b byte)      { e.Buf = append(e.Buf, b) }

// Str appends a uvarint length and the string's bytes.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Label appends a label's code, or the escape code and the label
// itself for a label the table lacks.
func (e *Enc) Label(l string) {
	for i, known := range labels {
		if l == known {
			e.Uvarint(uint64(i))
			return
		}
	}
	e.Uvarint(uint64(len(labels)))
	e.Str(l)
}

// Header appends f's magic and version.
func (e *Enc) Header(f *Format) {
	e.Buf = append(e.Buf, f.Magic[:]...)
	e.Uvarint(f.Version)
}

// Trailer appends the sentinel (a zero where a length would be) and
// the count of payloads before it.
func (e *Enc) Trailer(n uint64) {
	e.Uvarint(0)
	e.Uvarint(n)
}

// WritePayload writes p behind its uvarint length and returns the
// bytes written. The prefix is built in w's free buffer, so a write
// allocates nothing.
func WritePayload(w *bufio.Writer, p []byte) (int, error) {
	prefix := binary.AppendUvarint(w.AvailableBuffer(), uint64(len(p)))
	if _, err := w.Write(prefix); err != nil {
		return 0, err
	}
	n, err := w.Write(p)
	return len(prefix) + n, err
}

// --- decoding a payload in memory ---

// Dec reads wire primitives from one payload in memory with a sticky
// error: after the first failure every read returns zero, so a decoder
// runs straight through and checks Err once. Loose reports that the
// payload is not in the canonical form Enc writes: a varint longer
// than its value needs, or a known label escaped as a string.
type Dec struct {
	Data  []byte
	Pos   int
	Err   error
	Loose bool
	// Prefix begins every error ("trace: binary frame").
	Prefix string
}

// Fail records the first error, behind d.Prefix.
func (d *Dec) Fail(format string, args ...any) {
	if d.Err == nil {
		d.Err = fmt.Errorf(d.Prefix+": "+format, args...)
	}
}

func (d *Dec) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.Data[d.Pos:])
	if n <= 0 {
		d.Fail("bad uvarint at offset %d", d.Pos)
		return 0
	}
	d.Loose = d.Loose || n > 1 && d.Data[d.Pos+n-1] == 0 // minimal encodings end in a non-zero byte
	d.Pos += n
	return v
}

func (d *Dec) Varint() int64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Varint(d.Data[d.Pos:])
	if n <= 0 {
		d.Fail("bad varint at offset %d", d.Pos)
		return 0
	}
	d.Loose = d.Loose || n > 1 && d.Data[d.Pos+n-1] == 0
	d.Pos += n
	return v
}

func (d *Dec) F64() float64 {
	if d.Err != nil {
		return 0
	}
	if d.Pos+8 > len(d.Data) {
		d.Fail("truncated float at offset %d", d.Pos)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.Data[d.Pos:]))
	d.Pos += 8
	return v
}

func (d *Dec) Byte() byte {
	if d.Err != nil {
		return 0
	}
	if d.Pos >= len(d.Data) {
		d.Fail("truncated byte at offset %d", d.Pos)
		return 0
	}
	b := d.Data[d.Pos]
	d.Pos++
	return b
}

// SkipF64s steps over n float64s, failing where n calls of F64 would.
func (d *Dec) SkipF64s(n uint64) {
	if d.Err != nil {
		return
	}
	if fit := uint64(len(d.Data)-d.Pos) / 8; n > fit {
		d.Pos += int(fit) * 8
		d.Fail("truncated float at offset %d", d.Pos)
		return
	}
	d.Pos += int(n) * 8
}

func (d *Dec) Str() string { return d.StrIntern(nil) }

// StrIntern reads a string, resolving its bytes through an intern
// table first: a hit returns the table's string without allocating
// (the compiler elides the conversion in a map lookup), and a miss
// (always, for a nil table) copies.
func (d *Dec) StrIntern(names map[string]string) string {
	n := d.Uvarint()
	if d.Err != nil {
		return ""
	}
	if n > maxString {
		d.Fail("string length %d exceeds limit", n)
		return ""
	}
	if d.Pos+int(n) > len(d.Data) {
		d.Fail("truncated string at offset %d", d.Pos)
		return ""
	}
	b := d.Data[d.Pos : d.Pos+int(n)]
	d.Pos += int(n)
	if s, ok := names[string(b)]; ok {
		return s
	}
	return string(b)
}

// Label reads a label written by Enc.Label.
func (d *Dec) Label() string {
	code := d.Uvarint()
	switch {
	case d.Err != nil:
		return ""
	case code < uint64(len(labels)):
		return labels[code]
	case code == uint64(len(labels)):
		l := d.Str()
		for _, known := range labels {
			d.Loose = d.Loose || l == known
		}
		return l
	}
	d.Fail("bad label code %d", code)
	return ""
}

// --- reading a stream ---

// Reader reads one container from a stream through a buffer: the
// header, strings and varints, length-prefixed payloads, and the
// trailer. Its reads share a sticky error, as Dec's do: after the
// first failure they return zero values, and Err reports it. Inside a
// container running out of bytes is truncation, so a bare io.EOF is
// reported as io.ErrUnexpectedEOF; only Next and End report io.EOF,
// for a verified end.
type Reader struct {
	*bufio.Reader
	f   *Format
	n   uint64 // payloads Next has read
	err error
}

// NewReader reads f from r: through r itself when it is a
// *bufio.Reader holding at least size bytes, else through a new
// buffer of that size (64 KiB at least).
func NewReader(f *Format, r io.Reader, size int) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok || br.Size() < size {
		br = bufio.NewReaderSize(r, max(size, bufSize))
	}
	return &Reader{Reader: br, f: f}
}

// Err returns the first error a read met.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil && err != nil {
		r.err = noEOF(err)
	}
}

// Header reads and checks f's magic and version.
func (r *Reader) Header() error {
	var magic [4]byte
	_, err := io.ReadFull(r.Reader, magic[:])
	r.fail(err)
	if r.err == nil && magic != r.f.Magic {
		return fmt.Errorf("%s: not %s (magic %q)", r.f.Prefix, r.f.Noun, magic[:])
	}
	v := r.Uvarint()
	if r.err != nil {
		return fmt.Errorf("%s: read header: %w", r.f.Prefix, r.err)
	}
	if v != r.f.Version {
		return fmt.Errorf("%s: unsupported %s version %d (have %d)", r.f.Prefix, r.f.Magic[:], v, r.f.Version)
	}
	return nil
}

// Begins reports whether br's stream starts with f's magic, consuming
// nothing.
func (f *Format) Begins(br *bufio.Reader) bool {
	b, err := br.Peek(len(f.Magic))
	return err == nil && [4]byte(b) == f.Magic
}

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.Reader)
	r.fail(err)
	return v
}

func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.Reader)
	r.fail(err)
	return v
}

func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	b, err := r.Peek(8)
	if err != nil {
		r.fail(err)
		return 0
	}
	r.Discard(8)
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Str reads a length-prefixed string, copying it out of the buffer a
// window at a time. The string's storage starts at the bytes already
// buffered and grows as more arrive, so a forged length buys no
// memory.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxString {
		r.err = fmt.Errorf("string length %d exceeds limit", n)
		return ""
	}
	var sb strings.Builder
	sb.Grow(min(int(n), r.Buffered()))
	for sb.Len() < int(n) {
		b, err := r.Peek(min(int(n)-sb.Len(), r.Size()))
		sb.Write(b)
		r.Discard(len(b))
		if err != nil {
			r.fail(err)
			return ""
		}
	}
	return sb.String()
}

// Payload reads the next n bytes into buf's storage and returns them,
// or what arrived before an error. Past buf's capacity the storage
// grows only once the bytes read have filled it: to the size of the
// reader's buffer at first, then by doubling. So a forged length costs
// memory in proportion to the bytes behind it, not to the length it
// declares.
func (r *Reader) Payload(buf []byte, n uint64) []byte {
	buf = buf[:0]
	for r.err == nil && uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, uint64(max(2*cap(buf), r.Size()))))
			copy(grown, buf)
			buf = grown
		}
		got, err := io.ReadFull(r.Reader, buf[len(buf):min(n, uint64(cap(buf)))])
		buf = buf[:len(buf)+got]
		r.fail(err)
	}
	return buf
}

// Next reads the next length-prefixed payload into buf's storage (see
// Payload). At the sentinel it checks the trailer against the payloads
// read (End) and returns io.EOF for a clean end. After an end or an
// error, every call returns the same.
func (r *Reader) Next(buf []byte) ([]byte, error) {
	if r.err != nil {
		return buf[:0], r.err
	}
	n := r.Uvarint()
	switch {
	case r.err != nil:
	case n == 0:
		return buf[:0], r.End(r.n)
	case n > r.f.Limit:
		r.err = fmt.Errorf("length %d exceeds limit", n)
	default:
		if buf = r.Payload(buf, n); r.err == nil {
			r.n++
			return buf, nil
		}
	}
	r.err = fmt.Errorf("%s: read %s: %w", r.f.Prefix, r.f.Payload, r.err)
	return buf, r.err
}

// End reads the count trailer that follows the sentinel and checks it
// against n, the payloads read, and then that the input ends there:
// one more read must return end-of-file with no byte, which for gzip
// input is the read that verifies the member's CRC-32 and length. It
// returns io.EOF for a clean end, which every later read then reports.
func (r *Reader) End(n uint64) error {
	count := r.Uvarint()
	if r.err != nil {
		r.err = fmt.Errorf("%s: read trailer: %w", r.f.Prefix, r.err)
		return r.err
	}
	_, next := r.ReadByte()
	r.err = r.f.end(count, n, next)
	return r.err
}

// EndBytes is End for a stream held in memory: data is what follows
// the sentinel, and must be exactly the count trailer.
func (f *Format) EndBytes(data []byte, n uint64) error {
	count, k := binary.Uvarint(data)
	if k <= 0 {
		return fmt.Errorf("%s: read trailer: %w", f.Prefix, io.ErrUnexpectedEOF)
	}
	var next error = io.EOF
	if k < len(data) {
		next = nil
	}
	return f.end(count, n, next)
}

// end is the trailer rule: the trailer's count equals n, and next, the
// read past the trailer, met a bare end of input. It returns io.EOF
// when both hold.
func (f *Format) end(count, n uint64, next error) error {
	switch {
	case count != n:
		return fmt.Errorf("%s: trailer counts %d %ss, read %d", f.Prefix, count, f.Payload, n)
	case next == nil:
		return fmt.Errorf("%s: bytes after trailer", f.Prefix)
	case next != io.EOF:
		return fmt.Errorf("%s: read past trailer: %w", f.Prefix, next)
	}
	return io.EOF
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a
// container running out of bytes is truncation, and must never be
// mistaken for the end-of-stream signal.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Sniff returns a buffered reader of at least size bytes over r's
// content, inflated when r starts with the gzip magic, together with
// the gzip layer to close (nil when r is not compressed). Compression
// is detected from the bytes, never from a file name.
func Sniff(r io.Reader, size int) (*bufio.Reader, io.Closer, error) {
	br := bufio.NewReaderSize(r, size)
	if hdr, err := br.Peek(2); err == nil && hdr[0] == 0x1f && hdr[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, nil, err
		}
		return bufio.NewReaderSize(gz, size), gz, nil
	}
	return br, nil, nil
}
