package outcome

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"geosocial/internal/classify"
	"geosocial/internal/detect"
)

// recIdx locates one spooled record: the user ID it belongs to and the
// byte range it occupies in the spool file.
type recIdx struct {
	id   int
	off  int64
	size int32
}

// Writer builds an outcome log on disk. Records arrive in whatever
// order validation delivers them (which depends on sharding); the
// Writer spools each encoded record to a temp file immediately — memory
// stays O(users) index entries, never O(records) bytes — and Close
// re-sequences them into canonical user-ID order, writes the final
// header/records/trailer, and atomically renames the result into
// place. A path ending in ".gz" is gzip-compressed.
//
// Write appends one record (outcome.NewRecord distills it from a
// validated, classified user). A Writer that will not be completed must
// be Discarded so its temp files are removed.
type Writer struct {
	path      string
	name      string
	spool     *os.File
	spoolPath string
	bw        *bufio.Writer
	enc       recEnc
	index     []recIdx
	off       int64
	maxSize   int32
	closed    bool
}

// Create opens a log writer that will publish to path on Close. The
// dataset name is recorded in the header. The spool and the final
// temp file live next to path, so the rename is atomic.
func Create(path, name string) (*Writer, error) {
	spoolPath := path + ".spool"
	spool, err := os.Create(spoolPath)
	if err != nil {
		return nil, fmt.Errorf("outcome: create log: %w", err)
	}
	return &Writer{
		path:      path,
		name:      name,
		spool:     spool,
		spoolPath: spoolPath,
		bw:        bufio.NewWriterSize(spool, 1<<16),
	}, nil
}

// Users returns the number of records written so far.
func (w *Writer) Users() int { return len(w.index) }

// Write validates and spools one record.
func (w *Writer) Write(rec *Record) error {
	if w.spool == nil {
		return fmt.Errorf("outcome: write: log writer closed")
	}
	if err := rec.validate(classify.NumKinds); err != nil {
		return err
	}
	w.enc.reset()
	if err := encodeRecord(&w.enc, rec); err != nil {
		return err
	}
	return w.writeRaw(rec.UserID, w.enc.buf)
}

// writeRaw spools one record of user id already in its canonical
// encoding (what encodeRecord writes for a validated record).
func (w *Writer) writeRaw(id int, payload []byte) error {
	if w.spool == nil {
		return fmt.Errorf("outcome: write: log writer closed")
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("outcome: record for user %d exceeds %d bytes", id, maxRecordBytes)
	}
	if _, err := w.bw.Write(payload); err != nil {
		return fmt.Errorf("outcome: spool record: %w", err)
	}
	size := int32(len(payload))
	w.index = append(w.index, recIdx{id: id, off: w.off, size: size})
	w.off += int64(size)
	if size > w.maxSize {
		w.maxSize = size
	}
	return nil
}

// Discard abandons the log: temp files are removed and nothing is
// published. Safe to call after Close (it then does nothing).
func (w *Writer) Discard() {
	if w.closed || w.spool == nil {
		return
	}
	w.spool.Close()
	os.Remove(w.spoolPath)
	w.spool = nil
}

// Close re-sequences the spooled records into canonical user-ID order,
// writes the final log, and renames it into place. Duplicate user IDs
// are rejected here (the only point where the whole ID set is known).
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if w.spool == nil {
		return fmt.Errorf("outcome: close: log writer discarded")
	}
	err := w.finish()
	w.Discard() // remove the spool whether or not publication succeeded
	if err == nil {
		w.closed = true
	}
	return err
}

// finish performs the Close work against the open spool.
func (w *Writer) finish() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("outcome: flush spool: %w", err)
	}
	sort.Slice(w.index, func(i, j int) bool { return w.index[i].id < w.index[j].id })
	for i := 1; i < len(w.index); i++ {
		if w.index[i].id == w.index[i-1].id {
			return fmt.Errorf("outcome: duplicate user ID %d", w.index[i].id)
		}
	}

	tmpPath := w.path + ".tmp-gso"
	f, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("outcome: create log: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after a successful rename

	var out io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(w.path, ".gz") {
		gz = gzip.NewWriter(f)
		out = gz
	}
	bw := bufio.NewWriterSize(out, 1<<16)

	if err := w.writeLog(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("outcome: write log: %w", err)
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			f.Close()
			return fmt.Errorf("outcome: write log: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("outcome: write log: %w", err)
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		return fmt.Errorf("outcome: publish log: %w", err)
	}
	return nil
}

// writeLog emits header, records in index order, and trailer.
func (w *Writer) writeLog(bw *bufio.Writer) error {
	if _, err := bw.Write(logMagic[:]); err != nil {
		return fmt.Errorf("outcome: write header: %w", err)
	}
	var hdr recEnc
	hdr.uvarint(logVersion)
	hdr.str(w.name)
	hdr.uvarint(uint64(detect.FeatureDim))
	hdr.uvarint(uint64(classify.NumKinds))
	if _, err := bw.Write(hdr.buf); err != nil {
		return fmt.Errorf("outcome: write header: %w", err)
	}

	buf := make([]byte, w.maxSize)
	var lenBuf [binary.MaxVarintLen64]byte
	for _, ix := range w.index {
		rec := buf[:ix.size]
		if _, err := w.spool.ReadAt(rec, ix.off); err != nil {
			return fmt.Errorf("outcome: reread spool: %w", err)
		}
		n := binary.PutUvarint(lenBuf[:], uint64(ix.size))
		if _, err := bw.Write(lenBuf[:n]); err != nil {
			return fmt.Errorf("outcome: write record: %w", err)
		}
		if _, err := bw.Write(rec); err != nil {
			return fmt.Errorf("outcome: write record: %w", err)
		}
	}

	var tail recEnc
	tail.uvarint(0) // sentinel: no more records
	tail.uvarint(uint64(len(w.index)))
	if _, err := bw.Write(tail.buf); err != nil {
		return fmt.Errorf("outcome: write trailer: %w", err)
	}
	return nil
}
