package outcome

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"geosocial/internal/atomicfile"
	"geosocial/internal/classify"
	"geosocial/internal/detect"
	"geosocial/internal/wire"
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
// header/records/trailer, and publishes the result atomically
// (atomicfile). A path ending in ".gz" is gzip-compressed.
//
// Write appends one record (outcome.NewRecord distills it from a
// validated, classified user). A Writer that will not be completed must
// be Discarded so its temp files are removed.
type Writer struct {
	path    string
	name    string
	spool   *atomicfile.File // never committed: Close and Discard abort it
	bw      *bufio.Writer
	enc     wire.Enc
	index   []recIdx
	off     int64
	maxSize int32
	closed  bool
}

// Create opens a log writer that will publish to path on Close. The
// dataset name is recorded in the header. The spool and the final
// temp file are atomicfile temps next to path, unique to this Writer;
// Create first sweeps the stale temps a killed writer left there.
func Create(path, name string) (*Writer, error) {
	dir := filepath.Dir(path)
	atomicfile.SweepStale(dir, atomicfile.StaleAfter)
	spool, err := atomicfile.Create(dir, 0o666)
	if err != nil {
		return nil, fmt.Errorf("outcome: create log: %w", err)
	}
	return &Writer{
		path:  path,
		name:  name,
		spool: spool,
		bw:    bufio.NewWriterSize(spool, 1<<16),
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
	w.enc.Buf = w.enc.Buf[:0]
	if err := encodeRecord(&w.enc, rec); err != nil {
		return err
	}
	return w.writeRaw(rec.UserID, w.enc.Buf)
}

// writeRaw spools one record of user id already in its canonical
// encoding (what encodeRecord writes for a validated record).
func (w *Writer) writeRaw(id int, payload []byte) error {
	if w.spool == nil {
		return fmt.Errorf("outcome: write: log writer closed")
	}
	if uint64(len(payload)) > gso1.Limit {
		return fmt.Errorf("outcome: record for user %d exceeds %d bytes", id, gso1.Limit)
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
	if w.spool != nil {
		w.spool.Abort()
		w.spool = nil
	}
}

// Close re-sequences the spooled records into canonical user-ID order,
// writes the final log, and publishes it. Duplicate user IDs
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

	f, err := atomicfile.Create(filepath.Dir(w.path), 0o666)
	if err != nil {
		return fmt.Errorf("outcome: create log: %w", err)
	}
	defer f.Abort()

	var out io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(w.path, ".gz") {
		gz = gzip.NewWriter(f)
		out = gz
	}
	bw := bufio.NewWriterSize(out, 1<<16)

	if err := w.writeLog(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("outcome: write log: %w", err)
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return fmt.Errorf("outcome: write log: %w", err)
		}
	}
	if err := f.Commit(w.path); err != nil {
		return fmt.Errorf("outcome: publish log: %w", err)
	}
	return nil
}

// writeLog emits header, records in index order, and trailer.
func (w *Writer) writeLog(bw *bufio.Writer) error {
	var hdr wire.Enc
	hdr.Header(&gso1)
	hdr.Str(w.name)
	hdr.Uvarint(uint64(detect.FeatureDim))
	hdr.Uvarint(uint64(classify.NumKinds))
	if _, err := bw.Write(hdr.Buf); err != nil {
		return fmt.Errorf("outcome: write header: %w", err)
	}

	buf := make([]byte, w.maxSize)
	for _, ix := range w.index {
		rec := buf[:ix.size]
		if _, err := w.spool.ReadAt(rec, ix.off); err != nil {
			return fmt.Errorf("outcome: reread spool: %w", err)
		}
		if _, err := wire.WritePayload(bw, rec); err != nil {
			return fmt.Errorf("outcome: write record: %w", err)
		}
	}

	var tail wire.Enc
	tail.Trailer(uint64(len(w.index)))
	if _, err := bw.Write(tail.Buf); err != nil {
		return fmt.Errorf("outcome: write trailer: %w", err)
	}
	return nil
}
