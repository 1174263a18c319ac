package trace

// Binary dataset codec ("GSB1"): a compact streaming on-disk format for
// trace datasets. Unlike the JSON codec, which materializes the whole
// dataset before the first user can be validated, the binary format is a
// sequence of independently decodable per-user frames behind a small
// header, so readers and writers hold O(1 user) in memory regardless of
// dataset size.
//
// Layout (all integers are varints unless noted):
//
//	magic      4 bytes "GSB1"
//	version    uvarint (currently 1)
//	name       string (uvarint length + UTF-8 bytes)
//	poi count  uvarint
//	POI table  per POI: name, category (zigzag), lat/lon (zigzag E7),
//	           popularity (8-byte LE float64)
//	frames     per user: uvarint payload length (> 0), then the payload
//	sentinel   uvarint 0
//	trailer    uvarint user count (cross-checked by the reader)
//
// User frame payload:
//
//	id         zigzag varint
//	days       8-byte LE float64
//	profile    friends/badges/mayors (zigzag), checkins-per-day (float64)
//	gps        uvarint count; first fix time as zigzag varint, then
//	           uvarint deltas (fixes are time-ordered); lat/lon as zigzag
//	           E7 deltas from the previous fix (spatial coherence keeps
//	           them small); indoor flag byte
//	checkins   uvarint count; times delta-encoded like GPS; POI ID
//	           (uvarint), claimed name, category (zigzag), lat/lon
//	           (zigzag E7, absolute), truth label (enum, or enum escape +
//	           string for unknown labels)
//
// Coordinates are stored as fixed-point E7 integers (1e-7 degrees,
// ~1.1 cm of latitude) — far below GPS noise and the paper's 500 m
// matching threshold. Encoding therefore quantizes: a dataset round-
// tripped through the binary codec once is on the E7 grid and from then
// on round-trips exactly (through both the binary and JSON codecs).
// Timestamps, counts and float64 statistics are preserved exactly.
//
// Writers validate as they encode and readers validate as they decode
// (trace invariants, duplicate user IDs, checkin POI references), so a
// successfully decoded stream satisfies the same invariants Dataset.
// Validate enforces on the JSON path.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
)

// binaryMagic identifies the binary dataset format ("GeoSocial Binary").
var binaryMagic = [4]byte{'G', 'S', 'B', '1'}

// binaryVersion is the current header version.
const binaryVersion = 1

const (
	// coordScale converts degrees to fixed-point E7 ticks.
	coordScale = 1e7
	// maxFrameBytes caps a single user frame's declared length.
	maxFrameBytes = 1 << 30
	// frameGrowBytes is the first step by which a buffered frame read
	// grows its buffer past the bytes that have arrived (steps double
	// from there), so a forged length prefix costs memory in proportion
	// to the bytes actually behind it, not to the length it declares.
	frameGrowBytes = 1 << 20
	// maxStringBytes caps an encoded string so a corrupt length prefix
	// cannot force a large allocation.
	maxStringBytes = 1 << 20
	// minFixBytes and minCheckinBytes are the smallest encodings of a
	// GPS fix and of a checkin (one byte per field). A count inside a
	// frame sizes its slice to at most the records the rest of the frame
	// can hold, so a forged count costs memory in proportion to the
	// frame, not to the count.
	minFixBytes     = 4
	minCheckinBytes = 7
	// minPOIBytes is the smallest encoding of a header POI: one byte
	// each for the name length, category, latitude and longitude, and
	// the 8-byte popularity. The header's POI count sizes the table to
	// at most the POIs the bytes already buffered can hold; a longer
	// table grows by appending as its entries arrive.
	minPOIBytes = 12
	// maxFixBytes is the largest encoding of a GPS fix: three 10-byte
	// varints (time, lat, lon) and the indoor byte.
	maxFixBytes = 3*binary.MaxVarintLen64 + 1
)

// labelTable enumerates the known ground-truth labels; the index is the
// wire encoding. Unknown labels are written as len(labelTable) + string.
var labelTable = [...]Label{
	LabelNone, LabelHonest, LabelSuperfluous, LabelRemote, LabelDriveby, LabelOther,
}

func toE7(deg float64) int64 { return int64(math.Round(deg * coordScale)) }
func fromE7(v int64) float64 { return float64(v) / coordScale }

// --- encoding helpers ---

// frameEnc accumulates one frame's payload in memory (frames are
// length-prefixed, so the size must be known before the first byte is
// written to the stream).
type frameEnc struct{ buf []byte }

func (e *frameEnc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *frameEnc) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *frameEnc) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *frameEnc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *frameEnc) byte(b byte) { e.buf = append(e.buf, b) }

func (e *frameEnc) latlon(p geo.LatLon) {
	e.varint(toE7(p.Lat))
	e.varint(toE7(p.Lon))
}

func (e *frameEnc) label(l Label) {
	for i, known := range labelTable {
		if l == known {
			e.uvarint(uint64(i))
			return
		}
	}
	e.uvarint(uint64(len(labelTable)))
	e.str(string(l))
}

// --- decoding helpers ---

// frameDec decodes one frame payload with a sticky error, so call sites
// stay linear and check failure once.
type frameDec struct {
	data []byte
	pos  int
	err  error
}

func (d *frameDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *frameDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("trace: binary frame: bad uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *frameDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail("trace: binary frame: bad varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *frameDec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.data) {
		d.fail("trace: binary frame: truncated float at offset %d", d.pos)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v
}

func (d *frameDec) str() string { return d.strIntern(nil) }

// strIntern decodes a string, resolving its bytes through an intern
// table first: a hit returns the canonical string without allocating
// (the compiler elides the string conversion in a map lookup), a miss
// (always, for a nil table) copies.
func (d *frameDec) strIntern(names map[string]string) string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxStringBytes {
		d.fail("trace: binary frame: string length %d exceeds limit", n)
		return ""
	}
	if d.pos+int(n) > len(d.data) {
		d.fail("trace: binary frame: truncated string at offset %d", d.pos)
		return ""
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	if s, ok := names[string(b)]; ok {
		return s
	}
	return string(b)
}

func (d *frameDec) latlon() geo.LatLon {
	lat := d.varint()
	lon := d.varint()
	return geo.LatLon{Lat: fromE7(lat), Lon: fromE7(lon)}
}

func (d *frameDec) label() Label {
	idx := d.uvarint()
	if d.err != nil {
		return LabelNone
	}
	if idx < uint64(len(labelTable)) {
		return labelTable[idx]
	}
	if idx == uint64(len(labelTable)) {
		return Label(d.str())
	}
	d.fail("trace: binary frame: bad label code %d", idx)
	return LabelNone
}

// --- stream writer ---

// StreamWriter writes a binary dataset one user at a time, holding only
// the current user in memory. The header (name + POI table) is written
// up front; Close writes the end-of-stream sentinel and trailer. The
// writer validates each user (trace invariants, unique IDs, known
// checkin POIs) before encoding it, so a completed stream always decodes
// cleanly.
//
// The writer does not close or flush the underlying io.Writer beyond its
// own buffering; callers own gzip wrapping and file lifecycle.
type StreamWriter struct {
	w       *bufio.Writer
	scratch frameEnc
	seen    map[int]struct{}
	numPOIs int
	users   uint64
	bytes   int64
	closed  bool
}

// NewStreamWriter validates the POI table and writes the stream header.
func NewStreamWriter(w io.Writer, name string, pois []poi.POI) (*StreamWriter, error) {
	if err := poi.ValidateTable(pois); err != nil {
		return nil, fmt.Errorf("trace: write binary: %w", err)
	}
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriterSize(w, 1<<16)
	}
	sw := &StreamWriter{
		w:       bw,
		seen:    make(map[int]struct{}),
		numPOIs: len(pois),
	}
	hdr := appendHeader(nil, name, encodePOITable(nil, pois))
	if _, err := sw.w.Write(hdr); err != nil {
		return nil, fmt.Errorf("trace: write binary header: %w", err)
	}
	sw.bytes = int64(len(hdr))
	return sw, nil
}

// encodePOITable appends the header encoding of a POI table to buf: the
// POI count, then per POI its name, category, E7 location and
// popularity. It is the one definition of the table's byte layout: the
// stream header, POIChecksum and the shard set's header check all use it.
func encodePOITable(buf []byte, pois []poi.POI) []byte {
	e := frameEnc{buf: buf}
	e.uvarint(uint64(len(pois)))
	for _, p := range pois {
		e.str(p.Name)
		e.varint(int64(p.Category))
		e.latlon(p.Loc)
		e.f64(p.Popularity)
	}
	return e.buf
}

// appendHeader appends a whole stream header to buf: magic, version,
// dataset name and the encoded POI table.
func appendHeader(buf []byte, name string, table []byte) []byte {
	e := frameEnc{buf: append(buf, binaryMagic[:]...)}
	e.uvarint(binaryVersion)
	e.str(name)
	return append(e.buf, table...)
}

// Users returns the number of user frames written so far.
func (sw *StreamWriter) Users() int { return int(sw.users) }

// Bytes returns the number of uncompressed stream bytes produced so far
// (header plus frames; the trailer is not yet counted before Close).
// ShardWriter uses it to keep shards size-balanced.
func (sw *StreamWriter) Bytes() int64 { return sw.bytes }

// WriteUser validates and appends one user frame.
func (sw *StreamWriter) WriteUser(u *User) error {
	if sw.closed {
		return fmt.Errorf("trace: write binary: writer closed")
	}
	if err := u.Validate(); err != nil {
		return fmt.Errorf("trace: write binary: %w", err)
	}
	if _, dup := sw.seen[u.ID]; dup {
		return fmt.Errorf("trace: write binary: duplicate user ID %d", u.ID)
	}
	if err := u.validateRefs(sw.numPOIs); err != nil {
		return fmt.Errorf("trace: write binary: %w", err)
	}

	e := &sw.scratch
	e.buf = e.buf[:0]
	e.varint(int64(u.ID))
	e.f64(u.Days)
	e.varint(int64(u.Profile.Friends))
	e.varint(int64(u.Profile.Badges))
	e.varint(int64(u.Profile.Mayors))
	e.f64(u.Profile.CheckinsPerDay)

	e.uvarint(uint64(len(u.GPS)))
	var prevT int64
	var prevLat, prevLon int64
	for i, p := range u.GPS {
		if i == 0 {
			e.varint(p.T)
		} else {
			e.uvarint(uint64(p.T - prevT)) // Validate guarantees non-decreasing
		}
		prevT = p.T
		lat, lon := toE7(p.Loc.Lat), toE7(p.Loc.Lon)
		e.varint(lat - prevLat)
		e.varint(lon - prevLon)
		prevLat, prevLon = lat, lon
		if p.Indoor {
			e.byte(1)
		} else {
			e.byte(0)
		}
	}

	e.uvarint(uint64(len(u.Checkins)))
	prevT = 0
	for i, c := range u.Checkins {
		if i == 0 {
			e.varint(c.T)
		} else {
			e.uvarint(uint64(c.T - prevT))
		}
		prevT = c.T
		e.uvarint(uint64(c.POIID))
		e.str(c.POIName)
		e.varint(int64(c.Category))
		e.latlon(c.Loc)
		e.label(c.Truth)
	}

	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(e.buf)))
	if _, err := sw.w.Write(lenBuf[:n]); err != nil {
		return fmt.Errorf("trace: write binary frame: %w", err)
	}
	if _, err := sw.w.Write(e.buf); err != nil {
		return fmt.Errorf("trace: write binary frame: %w", err)
	}
	sw.seen[u.ID] = struct{}{}
	sw.users++
	sw.bytes += int64(n + len(e.buf))
	return nil
}

// Close writes the end-of-stream sentinel and user-count trailer and
// flushes the writer's buffer. It does not close the underlying writer.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	var tail frameEnc
	tail.uvarint(0) // sentinel: no more frames
	tail.uvarint(sw.users)
	if _, err := sw.w.Write(tail.buf); err != nil {
		return fmt.Errorf("trace: write binary trailer: %w", err)
	}
	sw.bytes += int64(len(tail.buf))
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("trace: write binary trailer: %w", err)
	}
	return nil
}

// --- stream reader ---

// StreamReader reads a binary dataset one user at a time, holding only
// the current frame in memory. The header (name + POI table) is decoded
// and validated by NewStreamReader; Next yields validated users and
// io.EOF after the trailer has been verified.
//
// Ingest is split into two stages so decode can run off the reading
// goroutine: NextFrame fetches the next raw frame (cheap, sequential
// I/O) and DecodeFrame decodes and validates it (CPU-bound, safe for
// concurrent calls on distinct frames). Next composes the two for the
// serial path. Frame buffers are recycled through an internal pool —
// DecodeFrame returns its frame's buffer when done — so steady-state
// reading allocates no per-user scratch.
//
// The reader tracks seen user IDs to reject duplicates — an O(users)
// integer set, the only per-user state it keeps. The check lives in
// Next, not DecodeFrame: callers of the two-stage API that interleave
// frames from several readers own the (inherently serial) duplicate
// check across their merged stream.
//
// A reader opened from a file (OpenStream, ShardSet.OpenShard) owns
// the file, its mapping or its gzip layer, which Close releases; a
// shard's reader also checks the manifest's user count at the end.
type StreamReader struct {
	r     *bufio.Reader
	name  string
	pois  []poi.POI
	names map[string]string // POI-name intern table, read-only after header
	seen  map[int]struct{}
	users uint64
	end   error // io.EOF after a verified end, else the error the end met; nil before

	// In-memory mode (NewStreamReaderBytes): frames are sliced straight
	// out of mm — no copy, no buffer pool. Nil for io.Reader streams.
	mm    []byte
	mmPos int

	shard *ShardInfo     // the shard's manifest entry, nil for a plain stream
	owned []func() error // Close calls these, in order
}

// Decode scratch is pooled process-wide, not per reader: a long-running
// server opens a reader per job, and per-reader pools would strand each
// finished job's records until two collections pass. A record or frame
// buffer carries nothing from one decode to the next (decodeFrame
// overwrites every field), so any reader may reuse any of them.
var (
	frameBufs sync.Pool // *[]byte, recycled by DecodeFrame
	userPool  sync.Pool // *User, recycled by RecycleUser
)

// UserRecycler is implemented by frame sources whose DecodeFrame can
// reuse consumed user records. A consumer that is provably done with a
// decoded user — nothing retains the User or its GPS/checkin slices —
// hands it back so the next decode fills it in place instead of
// allocating. Recycling is strictly opt-in: sources whose consumers
// retain users simply never call it and decode behaves as before.
type UserRecycler interface {
	RecycleUser(*User)
}

// Frame is one undecoded unit of a user stream: a raw binary frame
// fetched by StreamReader.NextFrame, or an already-decoded user wrapped
// by SourceFrames. Frames are consumed by DecodeFrame and must not be
// reused afterwards (the backing buffer returns to the buffer pool).
type Frame struct {
	data []byte
	buf  *[]byte // pool box for data, nil when not pooled
	user *User   // pre-decoded user for SourceFrames adapters
}

// UserID peeks the frame's user ID without decoding the frame: the ID
// is the payload's leading zigzag varint. For a pre-decoded frame it
// returns the wrapped user's ID. Peeking does not consume the frame —
// it must still be decoded or recycled.
func (f Frame) UserID() (int, error) {
	if f.user != nil {
		return f.user.ID, nil
	}
	id, n := binary.Varint(f.data)
	if n <= 0 {
		return 0, fmt.Errorf("trace: binary frame: bad user ID varint")
	}
	return int(id), nil
}

// Detach returns a frame holding its own copy of f's bytes, in a
// buffer from the pool, so it can be decoded after its reader is
// closed: a frame of a mapped shard is a slice of the mapping. A frame
// that already owns its buffer is returned as it is.
func (f Frame) Detach() Frame {
	if f.buf != nil || f.user != nil {
		return f
	}
	bp, _ := frameBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	data := append((*bp)[:0], f.data...)
	*bp = data[:0]
	return Frame{data: data, buf: bp}
}

// Recycle returns an undecoded frame's buffer to the buffer pool
// without decoding it — the counterpart of DecodeFrame for callers that
// peek (Frame.UserID) and skip frames. The frame must not be used
// afterwards.
func (sr *StreamReader) Recycle(f Frame) {
	if f.buf != nil {
		frameBufs.Put(f.buf)
	}
}

// FrameSource is the two-stage ingest interface behind parallel decode.
// NextFrame returns the next undecoded frame, or io.EOF at a verified
// end of stream; it must be called from one goroutine at a time.
// DecodeFrame decodes and validates a frame from this source; it is
// safe for concurrent calls on distinct frames, which is what lets
// decode run as the first stage of a worker pool. Implementations do
// not check for duplicate user IDs across frames — that check is
// serial by nature and belongs to whoever consumes the decoded stream.
type FrameSource interface {
	NextFrame() (Frame, error)
	DecodeFrame(Frame) (*User, error)
}

// NewStreamReader decodes and validates the stream header. The reader
// expects uncompressed bytes; callers own gzip unwrapping (OpenStream
// does both).
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: read binary header: %w", noEOF(err))
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("trace: not a binary dataset (magic %q)", magic[:])
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: read binary header: %w", noEOF(err))
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported binary version %d (have %d)", version, binaryVersion)
	}
	sr := &StreamReader{r: br, seen: make(map[int]struct{})}
	if sr.name, err = readString(br); err != nil {
		return nil, fmt.Errorf("trace: read binary header: %w", err)
	}
	nPOIs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: read binary header: %w", noEOF(err))
	}
	sr.pois = make([]poi.POI, 0, min(nPOIs, uint64(br.Buffered()/minPOIBytes)))
	for i := uint64(0); i < nPOIs; i++ {
		p := poi.POI{ID: int(i)}
		if p.Name, err = readString(br); err != nil {
			return nil, fmt.Errorf("trace: read POI %d: %w", i, err)
		}
		cat, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: read POI %d: %w", i, noEOF(err))
		}
		p.Category = poi.Category(cat)
		lat, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: read POI %d: %w", i, noEOF(err))
		}
		lon, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: read POI %d: %w", i, noEOF(err))
		}
		p.Loc = geo.LatLon{Lat: fromE7(lat), Lon: fromE7(lon)}
		var popBits [8]byte
		if _, err := io.ReadFull(br, popBits[:]); err != nil {
			return nil, fmt.Errorf("trace: read POI %d: %w", i, noEOF(err))
		}
		p.Popularity = math.Float64frombits(binary.LittleEndian.Uint64(popBits[:]))
		sr.pois = append(sr.pois, p)
	}
	if err := poi.ValidateTable(sr.pois); err != nil {
		return nil, fmt.Errorf("trace: invalid POI table: %w", err)
	}
	// Intern table for checkin POI names: claimed names overwhelmingly
	// repeat venue-table names, and a map[string]string lookup keyed by
	// string(bytes) does not allocate on a hit, so steady-state decode
	// reuses one canonical string per venue. Read-only after the header,
	// hence safe under concurrent DecodeFrame calls.
	sr.names = make(map[string]string, len(sr.pois))
	for _, p := range sr.pois {
		sr.names[p.Name] = p.Name
	}
	return sr, nil
}

// NewStreamReaderBytes opens a binary dataset held entirely in memory —
// typically an mmap'ed uncompressed shard. Frames are sliced directly
// from data with no copying and no buffer pool; data must remain valid
// and unmodified for the lifetime of the reader and of every frame it
// yields. Decoded users never alias data (strings are interned or
// copied), so they outlive an unmap.
func NewStreamReaderBytes(data []byte) (*StreamReader, error) {
	r := bytes.NewReader(data)
	br := bufio.NewReaderSize(r, 1<<16)
	sr, err := NewStreamReader(br)
	if err != nil {
		return nil, err
	}
	sr.mm = data
	sr.mmPos = len(data) - r.Len() - br.Buffered()
	return sr, nil
}

// checkedHeader is a stream header that has passed every check a
// shard set makes (parse, POI-table validation, dataset name, POI
// checksum): its canonical bytes, magic through POI table, and what
// they decode to. A stream whose header is byte-equal to raw decodes to
// exactly this name and table, so its reader can share them, read-only,
// instead of parsing and checking the table again.
type checkedHeader struct {
	raw   []byte
	name  string
	pois  []poi.POI
	names map[string]string
}

// newCheckedHeader records sr's header, once checked, in the canonical
// encoding of its name and of table (sr's POI table, encoded).
func newCheckedHeader(sr *StreamReader, table []byte) *checkedHeader {
	return &checkedHeader{raw: appendHeader(nil, sr.name, table), name: sr.name, pois: sr.pois, names: sr.names}
}

// bufSize is the read-buffer size that lets Peek see the whole header.
func (h *checkedHeader) bufSize() int {
	if h == nil {
		return 1 << 16
	}
	return max(1<<16, len(h.raw))
}

// reader returns a reader positioned after the header when br's stream
// starts with exactly h's bytes. Otherwise ok is false and nothing has
// been consumed, so the caller parses the header in full.
func (h *checkedHeader) reader(br *bufio.Reader) (sr *StreamReader, ok bool) {
	if h == nil {
		return nil, false
	}
	b, err := br.Peek(len(h.raw))
	if err != nil || !bytes.Equal(b, h.raw) {
		return nil, false
	}
	br.Discard(len(h.raw))
	return &StreamReader{r: br, name: h.name, pois: h.pois, names: h.names, seen: make(map[int]struct{})}, true
}

// readerBytes is reader for an in-memory stream (see
// NewStreamReaderBytes).
func (h *checkedHeader) readerBytes(data []byte) (sr *StreamReader, ok bool) {
	if h == nil || !bytes.HasPrefix(data, h.raw) {
		return nil, false
	}
	return &StreamReader{name: h.name, pois: h.pois, names: h.names, seen: make(map[int]struct{}), mm: data, mmPos: len(h.raw)}, true
}

// Name returns the dataset name from the header.
func (sr *StreamReader) Name() string { return sr.name }

// POIs returns the decoded POI table. The slice is owned by the reader;
// callers must not mutate it.
func (sr *StreamReader) POIs() []poi.POI { return sr.pois }

// Next decodes, validates and returns the next user, or io.EOF once the
// end-of-stream trailer has been read and verified. A truncated or
// corrupt stream yields a non-EOF error, never a silently short dataset.
func (sr *StreamReader) Next() (*User, error) {
	f, err := sr.NextFrame()
	if err != nil {
		return nil, err // io.EOF passes through untouched
	}
	u, err := sr.DecodeFrame(f)
	if err != nil {
		return nil, err
	}
	if _, dup := sr.seen[u.ID]; dup {
		return nil, fmt.Errorf("trace: invalid dataset: duplicate user ID %d", u.ID)
	}
	sr.seen[u.ID] = struct{}{}
	return u, nil
}

// NextFrame fetches the next raw user frame without decoding it, or
// io.EOF once the end-of-stream trailer has been read and verified (see
// finish). The frame's buffer comes from the buffer pool and is
// reclaimed by DecodeFrame, so each frame must be decoded exactly once.
func (sr *StreamReader) NextFrame() (Frame, error) {
	if sr.end != nil {
		return Frame{}, sr.end
	}
	if sr.mm != nil {
		return sr.nextFrameBytes()
	}
	frameLen, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return Frame{}, fmt.Errorf("trace: read binary frame: %w", noEOF(err))
	}
	if frameLen == 0 {
		return Frame{}, sr.finish()
	}
	if frameLen > maxFrameBytes {
		return Frame{}, fmt.Errorf("trace: binary frame length %d exceeds limit", frameLen)
	}
	bp, _ := frameBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	buf, err := readFrame(sr.r, (*bp)[:0], int(frameLen))
	*bp = buf[:0]
	if err != nil {
		frameBufs.Put(bp)
		return Frame{}, fmt.Errorf("trace: read binary frame: %w", noEOF(err))
	}
	sr.users++
	return Frame{data: buf, buf: bp}, nil
}

// readFrame reads n bytes from r into buf's storage, growing it in
// doubling steps of at least frameGrowBytes as bytes arrive rather than
// all at once, and returns the filled slice (or what arrived before an
// error).
func readFrame(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) >= n {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, len(buf)+max(len(buf), frameGrowBytes)))
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

// nextFrameBytes is NextFrame for the in-memory (mmap) mode: frames are
// subslices of the mapping, so fetching copies nothing and recycles
// nothing.
func (sr *StreamReader) nextFrameBytes() (Frame, error) {
	frameLen, n := binary.Uvarint(sr.mm[sr.mmPos:])
	if n <= 0 {
		return Frame{}, fmt.Errorf("trace: read binary frame: %w", io.ErrUnexpectedEOF)
	}
	sr.mmPos += n
	if frameLen == 0 {
		return Frame{}, sr.finish()
	}
	if frameLen > maxFrameBytes {
		return Frame{}, fmt.Errorf("trace: binary frame length %d exceeds limit", frameLen)
	}
	if uint64(len(sr.mm)-sr.mmPos) < frameLen {
		return Frame{}, fmt.Errorf("trace: read binary frame: %w", io.ErrUnexpectedEOF)
	}
	data := sr.mm[sr.mmPos : sr.mmPos+int(frameLen)]
	sr.mmPos += int(frameLen)
	sr.users++
	return Frame{data: data}, nil
}

// finish verifies what follows the sentinel: the trailer's user count,
// then the end of the input, then a shard's count in the manifest. The
// input ends at the trailer: a mapping holds no byte after it, and one
// more buffered read reports io.EOF with no byte, which for gzip input
// is also the read that verifies the stream's CRC-32 and length. The
// verdict, io.EOF for a clean end, answers every later NextFrame.
func (sr *StreamReader) finish() error {
	var count uint64
	var err error
	if sr.mm != nil {
		n := 0
		if count, n = binary.Uvarint(sr.mm[sr.mmPos:]); n <= 0 {
			return fmt.Errorf("trace: read binary trailer: %w", io.ErrUnexpectedEOF)
		}
		sr.mmPos += n
	} else if count, err = binary.ReadUvarint(sr.r); err != nil {
		return fmt.Errorf("trace: read binary trailer: %w", noEOF(err))
	}
	if count != sr.users {
		return fmt.Errorf("trace: binary trailer user count %d, decoded %d", count, sr.users)
	}
	if sr.mm == nil {
		_, err = sr.r.ReadByte()
	} else if sr.mmPos == len(sr.mm) {
		err = io.EOF
	}
	switch {
	case err == nil:
		sr.end = fmt.Errorf("trace: bytes after binary trailer")
	case err != io.EOF:
		sr.end = fmt.Errorf("trace: read past binary trailer: %w", err)
	case sr.shard != nil && int(sr.users) != sr.shard.Users:
		sr.end = fmt.Errorf("trace: shard has %d users, manifest says %d", sr.users, sr.shard.Users)
	default:
		sr.end = io.EOF
	}
	return sr.end
}

// Close releases what the reader's opener acquired: the file, its
// mapping or its gzip layer; a reader from NewStreamReader or
// NewStreamReaderBytes owns none, and Close does nothing. Safe to call
// more than once. DecodeFrame and the recycling methods stay usable
// afterwards, for frames that own their bytes (see Frame.Detach);
// NextFrame fails unless the stream had already ended.
func (sr *StreamReader) Close() error {
	var first error
	for _, c := range sr.owned {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	if sr.owned != nil && sr.end == nil {
		sr.end = fmt.Errorf("trace: read binary frame: reader closed")
	}
	sr.owned = nil
	return first
}

// RecycleUser returns a decoded user to the record pool so a
// later DecodeFrame can fill it in place (see UserRecycler). The caller
// must be done with the user and every slice it owns.
func (sr *StreamReader) RecycleUser(u *User) {
	if u == nil {
		return
	}
	u.GPS = u.GPS[:0]
	u.Checkins = u.Checkins[:0]
	userPool.Put(u)
}

// RecycleGPS returns u's GPS buffer, as an otherwise empty record, to
// the record pool and clears u.GPS; the rest of u stays valid. For a
// consumer done with a user's fixes but not yet with its checkins.
func RecycleGPS(u *User) {
	if cap(u.GPS) > 0 {
		userPool.Put(&User{GPS: u.GPS[:0]})
	}
	u.GPS = nil
}

// Users returns the number of user frames fetched so far.
func (sr *StreamReader) Users() int { return int(sr.users) }

// DecodeFrame decodes and validates one frame fetched from this reader
// (trace invariants and checkin POI references, but not cross-frame
// duplicate user IDs; see the type comment). It is safe for concurrent
// calls on distinct frames. The frame's buffer is returned to the
// buffer pool, so the frame must not be used again.
func (sr *StreamReader) DecodeFrame(f Frame) (*User, error) {
	if f.user != nil {
		return f.user, nil
	}
	u, err := sr.decodeFrame(f.data)
	if f.buf != nil {
		frameBufs.Put(f.buf)
	}
	return u, err
}

// decodeFrame decodes one raw frame payload into a validated user. The
// record comes from the pool when consumers recycle (every
// field is overwritten below, so a reused record carries nothing over);
// otherwise the pool misses and this allocates exactly as before.
func (sr *StreamReader) decodeFrame(data []byte) (u *User, err error) {
	d := frameDec{data: data}
	u, _ = userPool.Get().(*User)
	if u == nil {
		u = &User{}
	}
	defer func() {
		if err != nil {
			// The partially filled record is clean for reuse — every
			// decode starts by truncating the slices and overwriting
			// the scalars — so an error keeps it pooled, not leaked.
			sr.RecycleUser(u)
			u = nil
		}
	}()
	u.ID = int(d.varint())
	u.Days = d.f64()
	u.Profile.Friends = int(d.varint())
	u.Profile.Badges = int(d.varint())
	u.Profile.Mayors = int(d.varint())
	u.Profile.CheckinsPerDay = d.f64()

	nGPS := d.uvarint()
	gpsOK := true
	if d.err == nil {
		if hint := int(min(nGPS, uint64(len(data)-d.pos)/minFixBytes)); cap(u.GPS) < hint {
			u.GPS = make(GPSTrace, 0, hint)
		} else {
			u.GPS = u.GPS[:0]
		}
		u.GPS, d.pos, gpsOK, d.err = decodeGPS(data, d.pos, nGPS, u.GPS)
	}

	nCk := d.uvarint()
	if d.err == nil {
		if hint := int(min(nCk, uint64(len(data)-d.pos)/minCheckinBytes)); cap(u.Checkins) < hint {
			u.Checkins = make(CheckinTrace, 0, hint)
		} else {
			u.Checkins = u.Checkins[:0]
		}
	}
	var t int64
	for i := uint64(0); i < nCk && d.err == nil; i++ {
		if i == 0 {
			t = d.varint()
		} else {
			t += int64(d.uvarint())
		}
		c := Checkin{T: t}
		c.POIID = int(d.uvarint())
		c.POIName = d.strIntern(sr.names)
		c.Category = poi.Category(d.varint())
		c.Loc = d.latlon()
		c.Truth = d.label()
		u.Checkins = append(u.Checkins, c)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("trace: binary frame for user %d has %d trailing bytes", u.ID, len(d.data)-d.pos)
	}

	// decodeGPS checked every fix; only a failed fix needs the full GPS
	// pass, which names the first offending fix.
	if err := u.validate(!gpsOK); err != nil {
		return nil, fmt.Errorf("trace: invalid dataset: %w", err)
	}
	if err := u.validateRefs(len(sr.pois)); err != nil {
		return nil, fmt.Errorf("trace: invalid dataset: %w", err)
	}
	return u, nil
}

// decodeGPS is the frame decoder's GPS kernel: it decodes n fixes from
// data[pos:] onto gps in one pass and returns the grown trace, the
// position after the last fix, whether every fix satisfied the trace
// invariants, and the first decode error. The wire layout is the one
// WriteUser emits (first time as a zigzag varint, then uvarint deltas;
// lat/lon as zigzag E7 deltas; an indoor byte).
//
// While a whole fix of the largest size fits in the remaining bytes,
// varints of one to three bytes (nearly every delta of a per-minute
// trace) decode inline; longer, malformed and near-the-end varints go through
// binary.Uvarint, which fails exactly as binary.Varint does. Errors name
// the same offsets and kinds as frameDec would.
//
// The invariant checks are GPSTrace.Validate's, made as each fix is
// built: time must not decrease, and the location must be valid. On the
// E7 grid the latter is an integer range test: float64(v)/1e7 is
// monotonic in v and exactly ±90 (±180) at v = ±9e8 (±1.8e9), so it lies
// in [-90, 90] exactly when v does in [-9e8, 9e8], and it is never NaN.
// A fix that fails is still decoded and appended — decode errors later
// in the frame take precedence — and ok reports it, so the caller can
// run GPSTrace.Validate for the exact error.
func decodeGPS(data []byte, pos int, n uint64, gps GPSTrace) (_ GPSTrace, _ int, ok bool, _ error) {
	const maxLatE7, maxLonE7 = 90 * coordScale, 180 * coordScale
	var t, lat, lon int64
	ok = true
	for i := uint64(0); i < n; i++ {
		fast := len(data)-pos >= maxFixBytes
		var ut, ulat, ulon uint64
		k := 0
		if fast {
			ut, k = uvarint3(data, pos)
		}
		if k == 0 {
			if ut, k = binary.Uvarint(data[pos:]); k <= 0 {
				kind := "uvarint"
				if i == 0 {
					kind = "varint"
				}
				return gps, pos, ok, fmt.Errorf("trace: binary frame: bad %s at offset %d", kind, pos)
			}
		}
		pos += k
		if k = 0; fast {
			ulat, k = uvarint3(data, pos)
		}
		if k == 0 {
			if ulat, k = binary.Uvarint(data[pos:]); k <= 0 {
				return gps, pos, ok, fmt.Errorf("trace: binary frame: bad varint at offset %d", pos)
			}
		}
		pos += k
		if k = 0; fast {
			ulon, k = uvarint3(data, pos)
		}
		if k == 0 {
			if ulon, k = binary.Uvarint(data[pos:]); k <= 0 {
				return gps, pos, ok, fmt.Errorf("trace: binary frame: bad varint at offset %d", pos)
			}
		}
		pos += k
		if pos >= len(data) {
			return gps, pos, ok, fmt.Errorf("trace: binary frame: truncated byte at offset %d", pos)
		}
		indoor := data[pos]
		pos++

		if i == 0 {
			t = unzigzag(ut)
		} else {
			prev := t
			t += int64(ut)
			ok = ok && t >= prev
		}
		lat += unzigzag(ulat)
		lon += unzigzag(ulon)
		ok = ok && uint64(lat+maxLatE7) <= 2*maxLatE7 && uint64(lon+maxLonE7) <= 2*maxLonE7
		gps = append(gps, GPSPoint{
			T:      t,
			Loc:    geo.LatLon{Lat: fromE7(lat), Lon: fromE7(lon)},
			Indoor: indoor != 0,
		})
	}
	return gps, pos, ok, nil
}

// uvarint3 decodes a uvarint of one to three bytes at b[pos:], which
// must hold at least three bytes. n == 0 means the encoding is longer
// or malformed; the caller falls back to binary.Uvarint. Like
// binary.Uvarint it accepts non-canonical (zero-padded) encodings.
func uvarint3(b []byte, pos int) (v uint64, n int) {
	b0 := b[pos]
	if b0 < 0x80 {
		return uint64(b0), 1
	}
	b1 := b[pos+1]
	if b1 < 0x80 {
		return uint64(b0&0x7f) | uint64(b1)<<7, 2
	}
	b2 := b[pos+2]
	if b2 < 0x80 {
		return uint64(b0&0x7f) | uint64(b1&0x7f)<<7 | uint64(b2)<<14, 3
	}
	return 0, 0
}

// unzigzag inverts the zigzag mapping binary.AppendVarint applies.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// SourceFrames adapts an already-decoded user stream to FrameSource, so
// in-memory and JSON-backed datasets can join a merged multi-source
// validation alongside binary shards. NextFrame wraps each user in a
// frame; DecodeFrame unwraps it (there is nothing left to decode).
func SourceFrames(src UserSource) FrameSource { return userFrames{src} }

type userFrames struct{ src UserSource }

// NextFrame wraps the source's next user in a pre-decoded frame.
func (s userFrames) NextFrame() (Frame, error) {
	u, err := s.src.Next()
	if err != nil {
		return Frame{}, err
	}
	return Frame{user: u}, nil
}

// DecodeFrame unwraps a pre-decoded frame (there is nothing to decode).
func (s userFrames) DecodeFrame(f Frame) (*User, error) { return f.user, nil }

// readString reads a uvarint-prefixed string from a header stream.
func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", noEOF(err)
	}
	if n > maxStringBytes {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	// Copy straight out of the reader's buffer into the string's own
	// storage, a window at a time: one allocation per string.
	var sb strings.Builder
	sb.Grow(int(n))
	for sb.Len() < int(n) {
		b, err := br.Peek(min(int(n)-sb.Len(), br.Size()))
		sb.Write(b)
		br.Discard(len(b))
		if err != nil {
			return "", noEOF(err)
		}
	}
	return sb.String(), nil
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a header
// or frame, running out of bytes is truncation, not a clean end, and must
// never be mistaken for the iterator's end-of-stream signal.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// --- whole-dataset convenience ---

// WriteBinary encodes the dataset in the binary format. The dataset is
// validated as a side effect (the writer checks every user); coordinates
// are quantized to the E7 grid (see the package comment above).
func (d *Dataset) WriteBinary(w io.Writer) error {
	sw, err := NewStreamWriter(w, d.Name, d.POIs)
	if err != nil {
		return err
	}
	for _, u := range d.Users {
		if err := sw.WriteUser(u); err != nil {
			return err
		}
	}
	return sw.Close()
}

// ReadBinary decodes a complete binary dataset into memory. Prefer
// NewStreamReader (or OpenStream) when per-user streaming suffices.
func ReadBinary(r io.Reader) (*Dataset, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	d := &Dataset{Name: sr.Name(), POIs: sr.POIs()}
	for {
		u, err := sr.Next()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return nil, err
		}
		d.Users = append(d.Users, u)
	}
}
