package outcome

import (
	"fmt"
	"io"
	"os"

	"geosocial/internal/detect"
	"geosocial/internal/wire"
)

// Reader decodes an outcome log one record at a time, holding only the
// current record in memory. The header is decoded and validated by
// NewReader; Next yields validated records in strictly increasing
// user-ID order (the canonical form every Writer produces — anything
// else is a corrupt or hand-mangled log) and io.EOF after the trailer
// has been verified. A truncated stream yields a non-EOF error, never a
// silently short analysis.
type Reader struct {
	r         *wire.Reader
	name      string
	kindCount int
	buf       []byte
	users     uint64
	prevID    int
}

// NewReader decodes and validates the log header. The reader expects
// uncompressed bytes; Open handles files and gzip.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{r: wire.NewReader(&gso1, r, 0)}
	if err := rd.r.Header(); err != nil {
		return nil, err
	}
	rd.name = rd.r.Str()
	dim := rd.r.Uvarint()
	kinds := rd.r.Uvarint()
	if err := rd.r.Err(); err != nil {
		return nil, fmt.Errorf("outcome: read header: %w", err)
	}
	if dim != detect.FeatureDim {
		return nil, fmt.Errorf("outcome: log carries %d-dimensional features (have %d)", dim, detect.FeatureDim)
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
	var err error
	rd.buf, err = rd.r.Next(rd.buf)
	return rd.buf, err
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

// LogFile is a Reader bound to an opened log file.
type LogFile struct {
	*Reader
	f  *os.File
	gz io.Closer // nil for an uncompressed log
}

// Open opens an outcome log file, transparently unwrapping gzip
// (detected from magic bytes, never the file name).
func Open(path string) (*LogFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("outcome: open log: %w", err)
	}
	br, gz, err := wire.Sniff(f, 1<<16)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("outcome: open log: %w", err)
	}
	lf := &LogFile{f: f, gz: gz}
	if lf.Reader, err = NewReader(br); err != nil {
		lf.Close()
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
