package trace

// GSF1 fragment container: the generic on-disk envelope for per-shard
// result fragments (checkpoints today; the multi-node result exchange
// tomorrow). A fragment is a small keyed document — a sorted key/value
// header identifying what the fragment belongs to — followed by named
// sections, each a stream of length-prefixed chunks, closed by a
// truncation-proof trailer carrying the total chunk count. The payload
// semantics (what the chunks mean) belong to the layer above
// (internal/checkpoint); this file owns only the byte-level envelope,
// documented in docs/FORMAT.md.
//
// Layout:
//
//	magic "GSF1"
//	uvarint version (currently 1)
//	uvarint nkeys, then nkeys × (string key, string value), keys sorted
//	sections, repeated:
//	    string name (non-empty)
//	    chunks, repeated: uvarint len(chunk)+1, chunk bytes
//	    uvarint 0  (end of section)
//	string "" (empty name: end of sections)
//	uvarint total chunk count across all sections
//
// Strings are uvarint-length-prefixed UTF-8. Chunk lengths are stored
// off by one so the zero value stays free as the section terminator
// (empty chunks are legal). Because keys are written sorted and the
// writer adds nothing nondeterministic, two fragments built from the
// same keys, sections and chunks are byte-identical — which is what
// lets fragments be content-addressed.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// fragmentMagic identifies the fragment container format.
var fragmentMagic = [4]byte{'G', 'S', 'F', '1'}

// fragmentVersion is the current container version.
const fragmentVersion = 1

const (
	// maxFragmentChunk caps one chunk so a corrupt length prefix cannot
	// trigger a multi-gigabyte allocation.
	maxFragmentChunk = 1 << 28
	// maxFragmentString caps an encoded key, value or section name.
	maxFragmentString = 1 << 20
	// maxFragmentKeys bounds the header key count.
	maxFragmentKeys = 1 << 10
)

// FragmentWriter emits a GSF1 fragment to an io.Writer. Sections are
// opened with Section and filled with Chunk; Finish writes the
// terminator and trailer. The writer performs no buffering or file
// management of its own — callers own the destination (and its
// atomic-publish discipline).
type FragmentWriter struct {
	w       *bufio.Writer
	scratch []byte
	chunks  uint64
	inSect  bool
	done    bool
	err     error
}

// NewFragmentWriter writes the fragment magic, version and sorted key
// header and returns a writer positioned before the first section.
func NewFragmentWriter(w io.Writer, keys map[string]string) (*FragmentWriter, error) {
	fw := &FragmentWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := fw.w.Write(fragmentMagic[:]); err != nil {
		return nil, fmt.Errorf("trace: write fragment: %w", err)
	}
	fw.uvarint(fragmentVersion)
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	fw.uvarint(uint64(len(names)))
	for _, k := range names {
		fw.str(k)
		fw.str(keys[k])
	}
	if fw.err != nil {
		return nil, fw.err
	}
	return fw, nil
}

// uvarint appends one uvarint to the stream.
func (fw *FragmentWriter) uvarint(v uint64) {
	if fw.err != nil {
		return
	}
	fw.scratch = binary.AppendUvarint(fw.scratch[:0], v)
	if _, err := fw.w.Write(fw.scratch); err != nil {
		fw.err = fmt.Errorf("trace: write fragment: %w", err)
	}
}

// str appends one length-prefixed string to the stream.
func (fw *FragmentWriter) str(s string) {
	fw.uvarint(uint64(len(s)))
	if fw.err != nil {
		return
	}
	if _, err := fw.w.WriteString(s); err != nil {
		fw.err = fmt.Errorf("trace: write fragment: %w", err)
	}
}

// Section closes any open section and starts a new one. The name must
// be non-empty (the empty name terminates the section list).
func (fw *FragmentWriter) Section(name string) error {
	if fw.done {
		return fmt.Errorf("trace: fragment writer finished")
	}
	if name == "" {
		return fmt.Errorf("trace: empty fragment section name")
	}
	if fw.inSect {
		fw.uvarint(0) // end the previous section
	}
	fw.str(name)
	fw.inSect = true
	return fw.err
}

// Chunk appends one chunk to the open section.
func (fw *FragmentWriter) Chunk(b []byte) error {
	if fw.done {
		return fmt.Errorf("trace: fragment writer finished")
	}
	if !fw.inSect {
		return fmt.Errorf("trace: fragment chunk outside a section")
	}
	if len(b) > maxFragmentChunk {
		return fmt.Errorf("trace: fragment chunk of %d bytes exceeds limit", len(b))
	}
	fw.uvarint(uint64(len(b)) + 1)
	if fw.err != nil {
		return fw.err
	}
	if _, err := fw.w.Write(b); err != nil {
		fw.err = fmt.Errorf("trace: write fragment: %w", err)
		return fw.err
	}
	fw.chunks++
	return nil
}

// Finish terminates the section list, writes the chunk-count trailer
// and flushes. The fragment is complete and verifiable only after
// Finish returns nil.
func (fw *FragmentWriter) Finish() error {
	if fw.done {
		return fw.err
	}
	fw.done = true
	if fw.inSect {
		fw.uvarint(0)
		fw.inSect = false
	}
	fw.str("") // end of sections
	fw.uvarint(fw.chunks)
	if fw.err != nil {
		return fw.err
	}
	if err := fw.w.Flush(); err != nil {
		fw.err = fmt.Errorf("trace: write fragment: %w", err)
	}
	return fw.err
}

// FragmentReader decodes a GSF1 fragment sequentially: header keys at
// open, then NextSection / NextChunk in document order. The trailer is
// verified when NextSection reports io.EOF, so a truncated fragment is
// always a decode error, never a silently short read.
type FragmentReader struct {
	r      *bufio.Reader
	keys   map[string]string
	chunks uint64
	buf    []byte
	inSect bool
	done   bool
}

// NewFragmentReader parses the fragment magic, version and key header.
func NewFragmentReader(r io.Reader) (*FragmentReader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: read fragment: %w", noEOF(err))
	}
	if magic != fragmentMagic {
		return nil, fmt.Errorf("trace: not a fragment (magic %q)", magic[:])
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: read fragment: %w", noEOF(err))
	}
	if version != fragmentVersion {
		return nil, fmt.Errorf("trace: unsupported fragment version %d (have %d)", version, fragmentVersion)
	}
	nkeys, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: read fragment: %w", noEOF(err))
	}
	if nkeys > maxFragmentKeys {
		return nil, fmt.Errorf("trace: fragment key count %d exceeds limit", nkeys)
	}
	// A key/value pair takes at least two bytes, so the map is sized by
	// the bytes already buffered, not by a count that may be forged.
	fr := &FragmentReader{r: br, keys: make(map[string]string, min(nkeys, uint64(br.Buffered()/2)))}
	for i := uint64(0); i < nkeys; i++ {
		k, err := fr.readStr()
		if err != nil {
			return nil, fmt.Errorf("trace: read fragment header: %w", err)
		}
		v, err := fr.readStr()
		if err != nil {
			return nil, fmt.Errorf("trace: read fragment header: %w", err)
		}
		fr.keys[k] = v
	}
	return fr, nil
}

// Keys returns the fragment's identifying key/value header.
func (fr *FragmentReader) Keys() map[string]string { return fr.keys }

// fill reads the next n bytes into fr.buf and returns them. The buffer
// is reused across calls and grows geometrically, so a fragment of
// many similar-sized chunks settles on one allocation; but it grows only
// once the bytes already read fill it, so a forged length costs memory
// in proportion to the bytes behind it, not to the length it declares.
// The returned slice is invalidated by the next fill (NextChunk
// documents the same reuse to its callers).
func (fr *FragmentReader) fill(n uint64) ([]byte, error) {
	buf := fr.buf[:0]
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), max(2*cap(buf), 512))
			copy(grown, buf)
			buf = grown
		}
		got, err := io.ReadFull(fr.r, buf[len(buf):min(n, uint64(cap(buf)))])
		buf = buf[:len(buf)+got]
		if err != nil {
			fr.buf = buf
			return nil, err
		}
	}
	fr.buf = buf
	return buf, nil
}

// readStr reads one length-prefixed string.
func (fr *FragmentReader) readStr() (string, error) {
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return "", noEOF(err)
	}
	if n > maxFragmentString {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	buf, err := fr.fill(n)
	if err != nil {
		return "", noEOF(err)
	}
	return string(buf), nil
}

// NextSection advances to the next section and returns its name, or
// io.EOF after the final section once the trailer has been verified.
// Any chunks left unread in the current section are skipped.
func (fr *FragmentReader) NextSection() (string, error) {
	if fr.done {
		return "", io.EOF
	}
	if fr.inSect {
		// Drain the remainder of the open section.
		for {
			if _, err := fr.NextChunk(); err == io.EOF {
				break
			} else if err != nil {
				return "", err
			}
		}
	}
	name, err := fr.readStr()
	if err != nil {
		return "", fmt.Errorf("trace: read fragment section: %w", err)
	}
	if name == "" {
		count, err := binary.ReadUvarint(fr.r)
		if err != nil {
			return "", fmt.Errorf("trace: read fragment trailer: %w", noEOF(err))
		}
		if count != fr.chunks {
			return "", fmt.Errorf("trace: fragment trailer says %d chunks, read %d", count, fr.chunks)
		}
		fr.done = true
		return "", io.EOF
	}
	fr.inSect = true
	return name, nil
}

// NextChunk returns the next chunk of the current section, or io.EOF at
// the section's end. The returned slice is reused by the next call;
// callers that retain it must copy.
func (fr *FragmentReader) NextChunk() ([]byte, error) {
	if !fr.inSect {
		return nil, fmt.Errorf("trace: fragment chunk read outside a section")
	}
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return nil, fmt.Errorf("trace: read fragment chunk: %w", noEOF(err))
	}
	if n == 0 {
		fr.inSect = false
		return nil, io.EOF
	}
	size := n - 1
	if size > maxFragmentChunk {
		return nil, fmt.Errorf("trace: fragment chunk of %d bytes exceeds limit", size)
	}
	buf, err := fr.fill(size)
	if err != nil {
		return nil, fmt.Errorf("trace: read fragment chunk: %w", noEOF(err))
	}
	fr.chunks++
	return buf, nil
}
