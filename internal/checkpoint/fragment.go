package checkpoint

// GSF1 fragment container: the on-disk envelope of a checkpoint. A
// fragment is a small keyed document — a sorted key/value header
// identifying what the fragment belongs to — followed by named
// sections, each a stream of length-prefixed chunks, closed by the
// count trailer of every container (internal/wire). What the chunks
// mean belongs to checkpoint.go; this file owns only the envelope,
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
//	string "" (empty name: the sentinel)
//	uvarint total chunk count across all sections
//	end of input
//
// Chunk lengths are stored off by one so the zero value stays free as
// the section terminator (empty chunks are legal). Because keys are
// written sorted and the writer adds nothing nondeterministic, two
// fragments built from the same keys, sections and chunks are
// byte-identical — which is what lets fragments be content-addressed.

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"geosocial/internal/wire"
)

// gsf1 is the fragment container. Its Limit caps one chunk.
var gsf1 = wire.Format{
	Magic:   [4]byte{'G', 'S', 'F', '1'},
	Version: 1,
	Limit:   1 << 28,
	Prefix:  "checkpoint",
	Noun:    "a fragment",
	Payload: "chunk",
}

// maxFragmentKeys bounds the header key count.
const maxFragmentKeys = 1 << 10

// fragmentWriter emits a GSF1 fragment to an io.Writer. Sections are
// opened with section and filled with chunk; finish writes the
// sentinel and trailer. The writer owns no file: callers own the
// destination and its atomic publish.
type fragmentWriter struct {
	w      *bufio.Writer
	e      wire.Enc // scratch for the framing around chunks
	chunks uint64
	inSect bool
	done   bool
	err    error
}

// newFragmentWriter writes the fragment magic, version and sorted key
// header and returns a writer positioned before the first section.
func newFragmentWriter(w io.Writer, keys map[string]string) (*fragmentWriter, error) {
	fw := &fragmentWriter{w: bufio.NewWriterSize(w, 1<<16)}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	fw.e.Header(&gsf1)
	fw.e.Uvarint(uint64(len(names)))
	for _, k := range names {
		fw.e.Str(k)
		fw.e.Str(keys[k])
	}
	fw.write(fw.e.Buf)
	return fw, fw.err
}

// write writes b unless an earlier write failed.
func (fw *fragmentWriter) write(b []byte) {
	if fw.err == nil {
		if _, err := fw.w.Write(b); err != nil {
			fw.err = fmt.Errorf("checkpoint: write fragment: %w", err)
		}
	}
}

// section closes any open section and starts a new one. The name must
// be non-empty (the empty name is the sentinel).
func (fw *fragmentWriter) section(name string) error {
	if fw.done {
		return fmt.Errorf("checkpoint: fragment writer finished")
	}
	if name == "" {
		return fmt.Errorf("checkpoint: empty fragment section name")
	}
	fw.e.Buf = fw.e.Buf[:0]
	if fw.inSect {
		fw.e.Uvarint(0) // end the previous section
	}
	fw.e.Str(name)
	fw.write(fw.e.Buf)
	fw.inSect = true
	return fw.err
}

// chunk appends one chunk to the open section.
func (fw *fragmentWriter) chunk(b []byte) error {
	if fw.done {
		return fmt.Errorf("checkpoint: fragment writer finished")
	}
	if !fw.inSect {
		return fmt.Errorf("checkpoint: fragment chunk outside a section")
	}
	if uint64(len(b)) > gsf1.Limit {
		return fmt.Errorf("checkpoint: fragment chunk of %d bytes exceeds limit", len(b))
	}
	fw.e.Buf = fw.e.Buf[:0]
	fw.e.Uvarint(uint64(len(b)) + 1)
	fw.write(fw.e.Buf)
	fw.write(b)
	if fw.err == nil {
		fw.chunks++
	}
	return fw.err
}

// finish ends the open section, writes the sentinel and the chunk-count
// trailer, and flushes. The fragment is complete only after finish
// returns nil.
func (fw *fragmentWriter) finish() error {
	if fw.done {
		return fw.err
	}
	fw.done = true
	fw.e.Buf = fw.e.Buf[:0]
	if fw.inSect {
		fw.e.Uvarint(0)
	}
	fw.e.Trailer(fw.chunks)
	fw.write(fw.e.Buf)
	if fw.err == nil {
		if err := fw.w.Flush(); err != nil {
			fw.err = fmt.Errorf("checkpoint: write fragment: %w", err)
		}
	}
	return fw.err
}

// fragmentReader decodes a GSF1 fragment sequentially: header keys at
// open, then nextSection / nextChunk in document order. The trailer and
// the end of input are verified when nextSection reports io.EOF, so a
// truncated fragment, or one with bytes after its trailer, is always a
// decode error, never a clean read.
type fragmentReader struct {
	r      *wire.Reader
	keys   map[string]string
	chunks uint64
	buf    []byte
	inSect bool
}

// newFragmentReader parses the fragment magic, version and key header.
func newFragmentReader(r io.Reader) (*fragmentReader, error) {
	rd := wire.NewReader(&gsf1, r, 0)
	if err := rd.Header(); err != nil {
		return nil, err
	}
	nkeys := rd.Uvarint()
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: read fragment: %w", err)
	}
	if nkeys > maxFragmentKeys {
		return nil, fmt.Errorf("checkpoint: fragment key count %d exceeds limit", nkeys)
	}
	// A key/value pair takes at least two bytes, so the map is sized by
	// the bytes already buffered, not by a count that may be forged.
	fr := &fragmentReader{r: rd, keys: make(map[string]string, min(nkeys, uint64(rd.Buffered()/2)))}
	for i := uint64(0); i < nkeys; i++ {
		k := rd.Str()
		v := rd.Str()
		if err := rd.Err(); err != nil {
			return nil, fmt.Errorf("checkpoint: read fragment header: %w", err)
		}
		fr.keys[k] = v
	}
	return fr, nil
}

// nextSection advances to the next section and returns its name, or
// io.EOF after the final section once the trailer and the end of input
// have been verified. Any chunks left unread in the current section
// are skipped.
func (fr *fragmentReader) nextSection() (string, error) {
	for fr.inSect {
		if _, err := fr.nextChunk(); err != nil && err != io.EOF {
			return "", err
		}
	}
	if err := fr.r.Err(); err != nil {
		return "", err // io.EOF after a verified end
	}
	name := fr.r.Str()
	if err := fr.r.Err(); err != nil {
		return "", fmt.Errorf("checkpoint: read fragment section: %w", err)
	}
	if name == "" { // the sentinel
		return "", fr.r.End(fr.chunks)
	}
	fr.inSect = true
	return name, nil
}

// nextChunk returns the next chunk of the current section, or io.EOF at
// the section's end. The returned slice is reused by the next call;
// callers that retain it must copy.
func (fr *fragmentReader) nextChunk() ([]byte, error) {
	if !fr.inSect {
		return nil, fmt.Errorf("checkpoint: fragment chunk read outside a section")
	}
	n := fr.r.Uvarint()
	switch {
	case fr.r.Err() != nil:
	case n == 0:
		fr.inSect = false
		return nil, io.EOF
	case n-1 > gsf1.Limit:
		return nil, fmt.Errorf("checkpoint: fragment chunk of %d bytes exceeds limit", n-1)
	default:
		if fr.buf = fr.r.Payload(fr.buf, n-1); fr.r.Err() == nil {
			fr.chunks++
			return fr.buf, nil
		}
	}
	return nil, fmt.Errorf("checkpoint: read fragment chunk: %w", fr.r.Err())
}
