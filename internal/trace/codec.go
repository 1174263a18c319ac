package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"geosocial/internal/atomicfile"
	"geosocial/internal/poi"
)

// Format identifies an on-disk dataset encoding.
type Format int

// Supported dataset file formats.
const (
	// FormatJSON is the original single-document JSON encoding.
	FormatJSON Format = iota
	// FormatBinary is the streaming binary encoding (see binary.go).
	FormatBinary
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatBinary:
		return "binary"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// MarshalJSON encodes the format as its String() name, so machine-
// readable reports say "binary", not an opaque enum number.
func (f Format) MarshalJSON() ([]byte, error) { return json.Marshal(f.String()) }

// UnmarshalJSON accepts the names produced by MarshalJSON.
func (f *Format) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "json":
		*f = FormatJSON
	case "binary":
		*f = FormatBinary
	default:
		return fmt.Errorf("trace: unknown format %q", s)
	}
	return nil
}

// Ext returns the conventional file extension for the format (without
// compression suffix): ".json" or ".bin".
func (f Format) Ext() string {
	if f == FormatBinary {
		return ".bin"
	}
	return ".json"
}

// formatForPath selects the save encoding from the path suffix: ".bin"
// (optionally ".bin.gz") means binary, everything else JSON. Loading
// never trusts the suffix — LoadFile and OpenStream sniff magic bytes.
func formatForPath(path string) Format {
	p := strings.TrimSuffix(path, ".gz")
	if strings.HasSuffix(p, ".bin") {
		return FormatBinary
	}
	return FormatJSON
}

// WriteJSON encodes the dataset as JSON to w.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("trace: encode dataset %q: %w", d.Name, err)
	}
	return nil
}

// ReadJSON decodes a dataset from JSON and validates it.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var d Dataset
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("trace: decode dataset: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("trace: invalid dataset: %w", err)
	}
	return &d, nil
}

// SaveFile writes the dataset to path, gzip-compressed when the path ends
// in ".gz" and binary-encoded when the (uncompressed) suffix is ".bin"
// (JSON otherwise). The write is atomic (atomicfile), so a crash or write
// error mid-save never leaves a truncated dataset at the destination.
func (d *Dataset) SaveFile(path string) error {
	f, err := atomicfile.Create(filepath.Dir(path), 0o666)
	if err != nil {
		return fmt.Errorf("trace: save dataset: %w", err)
	}
	defer f.Abort()

	bin := formatForPath(path) == FormatBinary
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		if bin {
			gz = newGSB1Gzip(f)
		} else {
			gz = gzip.NewWriter(f)
		}
		w = gz
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if bin {
		err = d.WriteBinary(bw)
	} else {
		err = d.WriteJSON(bw)
	}
	if err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("trace: save dataset: %w", err)
	}
	if gz != nil {
		if err = gz.Close(); err != nil {
			return fmt.Errorf("trace: save dataset: %w", err)
		}
	}
	if err = f.Commit(path); err != nil {
		return fmt.Errorf("trace: save dataset: %w", err)
	}
	return nil
}

// newGSB1Gzip returns the gzip writer every GSB1 stream is compressed
// with. It deflates at gzip.BestSpeed: LZ77 finds little in the
// varint-delta frames (a corpus shrinks 1.337x at level 1 against
// 1.339x at the default level) while deflate's CPU halves, and inflate
// costs the same at either level. Readers sniff the gzip magic and do
// not depend on the level.
func newGSB1Gzip(w io.Writer) *gzip.Writer {
	gz, _ := gzip.NewWriterLevel(w, gzip.BestSpeed) // errors only on an invalid level
	return gz
}

// errMmapUnsupported marks files (or platforms) where memory-mapped
// reading is unavailable; callers fall back to buffered streaming.
var errMmapUnsupported = fmt.Errorf("trace: mmap unsupported")

// mmapDisabled forces the buffered streaming path even where mmap would
// work. Tests flip it to pin that both readers produce identical
// results.
var mmapDisabled bool

// SetMmapDisabled forces (true) or re-allows (false) memory-mapped
// reading of uncompressed binary files, returning the previous setting.
// It exists so tests and diagnostics can pin that the mmap and buffered
// streaming readers produce identical results; it must not be flipped
// concurrently with OpenStream/OpenShard calls.
func SetMmapDisabled(v bool) bool {
	prev := mmapDisabled
	mmapDisabled = v
	return prev
}

// mapBinary is the zero-copy path for an open file: when the file is
// mappable and holds an uncompressed binary dataset, it returns the
// mapping and its unmap closer, and readers slice frames straight out of
// the mapping. Any other outcome (gzip, JSON, unsupported platform or
// file) reports ok=false with the file offset untouched, and the caller
// runs the buffered streaming path instead.
func mapBinary(f *os.File) (data []byte, unmap func() error, ok bool) {
	if mmapDisabled {
		return nil, nil, false
	}
	data, unmapFn, err := mmapFile(f)
	if err != nil {
		return nil, nil, false
	}
	if len(data) < len(binaryMagic) || [4]byte(data[:len(binaryMagic)]) != binaryMagic {
		unmapFn()
		return nil, nil, false
	}
	return data, unmapFn, true
}

// sniffReader detects gzip by magic bytes (regardless of file suffix) and
// returns a buffered reader over the uncompressed stream plus a closer
// for the gzip layer (nil when not compressed). The buffer holds at
// least size bytes.
func sniffReader(r io.Reader, size int) (*bufio.Reader, io.Closer, error) {
	br := bufio.NewReaderSize(r, size)
	hdr, err := br.Peek(2)
	if err == nil && hdr[0] == 0x1f && hdr[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, nil, err
		}
		return bufio.NewReaderSize(gz, size), gz, nil
	}
	return br, nil, nil
}

// isBinary reports whether the buffered stream starts with the binary
// dataset magic.
func isBinary(br *bufio.Reader) bool {
	hdr, err := br.Peek(len(binaryMagic))
	return err == nil && [4]byte(hdr) == binaryMagic
}

// LoadFile reads a dataset from a file in either format and validates
// it. Compression and encoding are detected from magic bytes, not the
// file name. The whole dataset is materialized in memory; use OpenStream
// for bounded-memory access to binary files.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: load dataset: %w", err)
	}
	defer f.Close()
	br, gz, err := sniffReader(f, 1<<16)
	if err != nil {
		return nil, fmt.Errorf("trace: load dataset: %w", err)
	}
	if gz != nil {
		defer gz.Close()
	}
	if isBinary(br) {
		return ReadBinary(br)
	}
	return ReadJSON(br)
}

// DatasetStream is a read handle over a dataset file: the header data
// (name, POI table) plus a UserSource over its users. For binary files
// users are decoded one frame at a time — memory stays O(1 user); for
// JSON files the document model forces a full in-memory load and the
// stream merely iterates it. Close releases the underlying file.
type DatasetStream struct {
	// Name is the dataset name from the file header.
	Name string
	// POIs is the venue table the users' checkins refer to.
	POIs []poi.POI
	// Format is the detected on-disk encoding.
	Format Format

	src UserSource
}

// Next yields the next user, or io.EOF after the last one.
func (s *DatasetStream) Next() (*User, error) { return s.src.Next() }

// Frames returns the two-stage FrameSource view of the stream: raw
// frames for binary files (decode can then run on a worker pool) and
// wrapped pre-decoded users for JSON files. Frames and Next iterate the
// same underlying cursor, so use one or the other, not both.
func (s *DatasetStream) Frames() FrameSource {
	if fs, ok := s.src.(FrameSource); ok {
		return fs
	}
	return SourceFrames(s.src)
}

// DB builds the POI database for the stream's venue table.
func (s *DatasetStream) DB() (*poi.DB, error) { return poi.NewDB(s.POIs) }

// Close releases the stream's file handles. Safe to call more than once.
func (s *DatasetStream) Close() error {
	if sr, ok := s.src.(*StreamReader); ok {
		return sr.Close()
	}
	return nil
}

// OpenStream opens a dataset file for per-user iteration, sniffing
// compression and encoding from magic bytes. Uncompressed binary files
// are memory-mapped where the platform supports it, so frame bytes are
// sliced from the mapping instead of copied through io.Reader; gzip
// input and other platforms use the buffered streaming path, with
// identical results. A JSON file loads whole, as its document model
// requires. Callers must Close the returned stream.
func OpenStream(path string) (*DatasetStream, error) {
	sr, _, err := openFile(path, nil, "")
	if err == errNotGSB1 {
		ds, err := ReadJSON(sr.r)
		sr.Close()
		if err != nil {
			return nil, err
		}
		return &DatasetStream{Name: ds.Name, POIs: ds.POIs, Format: FormatJSON, src: ds.Source()}, nil
	}
	if err != nil {
		return nil, err
	}
	return &DatasetStream{Name: sr.Name(), POIs: sr.POIs(), Format: FormatBinary, src: sr}, nil
}

// errNotGSB1 is openFile's report that a dataset file is not a GSB1
// stream (OpenStream then reads it as JSON).
var errNotGSB1 = errors.New("trace: not a GSB1 stream")

// openFile opens the file at path as a GSB1 stream: the one open path
// of OpenStream and ShardSet.OpenShard. An uncompressed stream is
// mapped where the platform allows (mapBinary); any other input is read
// buffered, through the gzip layer its sniffed magic calls for. A
// stream whose header bytes equal h's shares h's checked name and table
// (checked is true); any other header is parsed in full. The reader's
// Close releases the file, mapping and gzip layer.
//
// shard is the shard's file name, "" for a dataset file, and words the
// errors: an open or gzip error follows "trace: open dataset:" or
// "trace: open shard <file>:", and a header error is returned as it is
// or follows "trace: shard <file>:". A dataset file that is not GSB1
// fails with errNotGSB1 and a reader holding only the buffered input,
// which OpenStream reads as JSON and then closes.
func openFile(path string, h *checkedHeader, shard string) (sr *StreamReader, checked bool, err error) {
	openErr := func(err error) error {
		if shard == "" {
			return fmt.Errorf("trace: open dataset: %w", err)
		}
		return fmt.Errorf("trace: open shard %s: %w", shard, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false, openErr(err)
	}
	var owned []func() error
	if data, unmap, ok := mapBinary(f); ok {
		owned = []func() error{unmap, f.Close}
		if sr, checked = h.readerBytes(data); !checked {
			sr, err = NewStreamReaderBytes(data)
		}
	} else {
		br, gz, gzErr := sniffReader(f, h.bufSize())
		if gzErr != nil {
			f.Close()
			return nil, false, openErr(gzErr)
		}
		owned = []func() error{f.Close}
		if gz != nil {
			owned = []func() error{gz.Close, f.Close}
		}
		if shard == "" && !isBinary(br) {
			return &StreamReader{r: br, owned: owned}, false, errNotGSB1
		}
		if sr, checked = h.reader(br); !checked {
			sr, err = NewStreamReader(br)
		}
	}
	if err != nil {
		for _, c := range owned {
			c()
		}
		if shard != "" {
			err = fmt.Errorf("trace: shard %s: %w", shard, err)
		}
		return nil, false, err
	}
	sr.owned = owned
	return sr, checked, nil
}
