package outcome

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"geosocial/internal/detect"
)

// Reader decodes an outcome log one record at a time, holding only the
// current record in memory. The header is decoded and validated by
// NewReader; Next yields validated records in strictly increasing
// user-ID order (the canonical form every Writer produces — anything
// else is a corrupt or hand-mangled log) and io.EOF after the trailer
// has been verified. A truncated stream yields a non-EOF error, never a
// silently short analysis.
type Reader struct {
	r         *bufio.Reader
	name      string
	kindCount int
	buf       []byte
	users     uint64
	prevID    int
	done      bool
}

// NewReader decodes and validates the log header. The reader expects
// uncompressed bytes; Open handles files and gzip.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("outcome: read header: %w", noEOF(err))
	}
	if magic != logMagic {
		return nil, fmt.Errorf("outcome: not an outcome log (magic %q)", magic[:])
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("outcome: read header: %w", noEOF(err))
	}
	if version != logVersion {
		return nil, fmt.Errorf("outcome: unsupported log version %d (have %d)", version, logVersion)
	}
	rd := &Reader{r: br}
	if rd.name, err = readString(br); err != nil {
		return nil, fmt.Errorf("outcome: read header: %w", err)
	}
	dim, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("outcome: read header: %w", noEOF(err))
	}
	if dim != detect.FeatureDim {
		return nil, fmt.Errorf("outcome: log carries %d-dimensional features (have %d)", dim, detect.FeatureDim)
	}
	kinds, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("outcome: read header: %w", noEOF(err))
	}
	if kinds == 0 || kinds > maxKindCount {
		return nil, fmt.Errorf("outcome: invalid kind count %d", kinds)
	}
	rd.kindCount = int(kinds)
	return rd, nil
}

// Name returns the dataset name from the header.
func (rd *Reader) Name() string { return rd.name }

// Users returns the number of records decoded so far.
func (rd *Reader) Users() int { return int(rd.users) }

// Next decodes, validates and returns the next record, or io.EOF once
// the trailer has been read and verified. The record is freshly
// allocated and owned by the caller.
func (rd *Reader) Next() (*Record, error) {
	buf, err := rd.payload()
	if err != nil {
		return nil, err // io.EOF passes through untouched
	}
	rec, err := decodeRecord(buf, rd.kindCount)
	if err != nil {
		return nil, err
	}
	if err := rd.admit(rec.UserID); err != nil {
		return nil, err
	}
	return rec, nil
}

// payload reads the next record's payload into the reader's buffer
// (valid until the next call), or returns io.EOF once the trailer has
// been read and verified and the input has ended there.
func (rd *Reader) payload() ([]byte, error) {
	if rd.done {
		return nil, io.EOF
	}
	recLen, err := binary.ReadUvarint(rd.r)
	if err != nil {
		return nil, fmt.Errorf("outcome: read record: %w", noEOF(err))
	}
	if recLen == 0 {
		// Sentinel: verify the trailer then report a clean end.
		count, err := binary.ReadUvarint(rd.r)
		if err != nil {
			return nil, fmt.Errorf("outcome: read trailer: %w", noEOF(err))
		}
		if count != rd.users {
			return nil, fmt.Errorf("outcome: trailer record count %d, decoded %d", count, rd.users)
		}
		// The input ends at the trailer: one more read reports io.EOF
		// with no byte, and for gzip input it is the read that verifies
		// the stream's CRC-32 and length.
		switch _, err := rd.r.ReadByte(); err {
		case nil:
			return nil, fmt.Errorf("outcome: bytes after trailer")
		case io.EOF:
		default:
			return nil, fmt.Errorf("outcome: read past trailer: %w", err)
		}
		rd.done = true
		return nil, io.EOF
	}
	if recLen > maxRecordBytes {
		return nil, fmt.Errorf("outcome: record length %d exceeds limit", recLen)
	}
	rd.buf, err = readFull(rd.r, rd.buf[:0], int(recLen))
	if err != nil {
		return nil, fmt.Errorf("outcome: read record: %w", noEOF(err))
	}
	return rd.buf, nil
}

// admit counts a decoded record, enforcing strictly increasing user
// IDs.
func (rd *Reader) admit(id int) error {
	if rd.users > 0 && id <= rd.prevID {
		return fmt.Errorf("outcome: user %d out of canonical order (after %d)", id, rd.prevID)
	}
	rd.prevID = id
	rd.users++
	return nil
}

// readFull reads n bytes from r into buf's storage and returns the
// filled slice. Past buf's capacity the buffer grows in doubling steps
// of at least readGrowBytes as bytes arrive, so a forged length prefix
// costs memory in proportion to the bytes actually behind it.
func readFull(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) >= n {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, len(buf)+max(len(buf), readGrowBytes)))
			copy(grown, buf)
			buf = grown
		}
		got, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// LogFile is a Reader bound to an opened log file.
type LogFile struct {
	*Reader
	f  *os.File
	gz *gzip.Reader
}

// Open opens an outcome log file, transparently unwrapping gzip
// (detected from magic bytes, never the file name).
func Open(path string) (*LogFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("outcome: open log: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	lf := &LogFile{f: f}
	src := io.Reader(br)
	if head, perr := br.Peek(2); perr == nil && head[0] == 0x1f && head[1] == 0x8b {
		if lf.gz, err = gzip.NewReader(br); err != nil {
			f.Close()
			return nil, fmt.Errorf("outcome: open log: %w", err)
		}
		src = lf.gz
	}
	if lf.Reader, err = NewReader(src); err != nil {
		f.Close()
		return nil, err
	}
	return lf, nil
}

// Close releases the underlying file.
func (lf *LogFile) Close() error {
	if lf.gz != nil {
		lf.gz.Close()
	}
	return lf.f.Close()
}

// Scan streams every record of a log file through fn, in canonical
// user-ID order, holding one record in memory at a time. fn errors
// abort the scan.
func Scan(path string, fn func(*Record) error) error {
	lf, err := Open(path)
	if err != nil {
		return err
	}
	defer lf.Close()
	return each(lf, fn)
}

// readString reads a uvarint-prefixed string from a header stream.
func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", noEOF(err)
	}
	if n > maxStringBytes {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	buf, err := readFull(br, nil, int(n))
	if err != nil {
		return "", noEOF(err)
	}
	return string(buf), nil
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a
// header or record, running out of bytes is truncation, not a clean
// end, and must never be mistaken for the iterator's end-of-stream
// signal.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
