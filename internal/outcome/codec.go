package outcome

// GSO1 wire encoding: the varint/float primitives plus the record and
// header codecs. See the package comment for the byte-level layout.

import (
	"encoding/binary"
	"fmt"
	"math"

	"geosocial/internal/classify"
	"geosocial/internal/detect"
	"geosocial/internal/levy"
	"geosocial/internal/trace"
)

// logMagic identifies the outcome-log format ("GeoSocial Outcomes").
var logMagic = [4]byte{'G', 'S', 'O', '1'}

// logVersion is the current header version.
const logVersion = 1

const (
	// maxRecordBytes caps a single record so a corrupt length prefix
	// cannot trigger a multi-gigabyte allocation.
	maxRecordBytes = 1 << 28
	// maxStringBytes caps an encoded string for the same reason.
	maxStringBytes = 1 << 20
	// maxKindCount bounds the header kind count: kinds are stored as
	// single bytes, so anything larger is structurally impossible.
	maxKindCount = 256
	// readGrowBytes is the first step by which a record or string read
	// grows its buffer past the bytes that have arrived.
	readGrowBytes = 1 << 16
	// minCheckinBytes is the least a valid checkin occupies in a record:
	// a time, a kind and a label byte, and its feature vector.
	minCheckinBytes = 3 + 8*detect.FeatureDim
)

// labelTable enumerates the known ground-truth labels; the index is the
// wire encoding. Unknown labels are written as len(labelTable) + string.
var labelTable = [...]trace.Label{
	trace.LabelNone, trace.LabelHonest, trace.LabelSuperfluous,
	trace.LabelRemote, trace.LabelDriveby, trace.LabelOther,
}

// --- encoding helpers ---

// recEnc accumulates one record's payload in memory (records are
// length-prefixed, so the size must be known before the first byte
// reaches the stream).
type recEnc struct{ buf []byte }

func (e *recEnc) reset()           { e.buf = e.buf[:0] }
func (e *recEnc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *recEnc) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *recEnc) f64(v float64)    { e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v)) }
func (e *recEnc) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *recEnc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *recEnc) label(l trace.Label) {
	for i, known := range labelTable {
		if l == known {
			e.uvarint(uint64(i))
			return
		}
	}
	e.uvarint(uint64(len(labelTable)))
	e.str(string(l))
}

// flights writes one Levy flight block as two float64 columns.
func (e *recEnc) flights(fl []levy.Flight) {
	e.uvarint(uint64(len(fl)))
	for _, f := range fl {
		e.f64(f.Dist)
	}
	for _, f := range fl {
		e.f64(f.Time)
	}
}

// encodeRecord appends the record's payload to e. The record must have
// passed validate.
func encodeRecord(e *recEnc, r *Record) error {
	e.varint(int64(r.UserID))
	e.varint(int64(r.Profile.Friends))
	e.varint(int64(r.Profile.Badges))
	e.varint(int64(r.Profile.Mayors))
	e.f64(r.Profile.CheckinsPerDay)
	e.uvarint(uint64(r.Visits))
	e.uvarint(uint64(r.Missing))

	e.uvarint(uint64(len(r.Times)))
	var prev int64
	for i, t := range r.Times {
		if i == 0 {
			e.varint(t)
		} else {
			if t < prev {
				return fmt.Errorf("outcome: user %d: checkin %d out of order", r.UserID, i)
			}
			e.uvarint(uint64(t - prev))
		}
		prev = t
	}
	for _, k := range r.Kinds {
		e.byte(byte(k))
	}
	for _, l := range r.Truth {
		e.label(l)
	}
	for j := 0; j < detect.FeatureDim; j++ {
		for i := range r.Features {
			e.f64(r.Features[i][j])
		}
	}
	e.flights(r.GPSFlights)
	e.flights(r.HonestFlights)
	e.flights(r.AllFlights)
	e.uvarint(uint64(len(r.Pauses)))
	for _, p := range r.Pauses {
		e.f64(p)
	}
	return nil
}

// EncodeRecord returns one record's GSO1 payload encoding (the bytes a
// log stores length-prefixed), validating it first. This is the unit
// the checkpoint store persists per user; DecodeRecord reverses it.
func EncodeRecord(r *Record) ([]byte, error) {
	if err := r.validate(classify.NumKinds); err != nil {
		return nil, err
	}
	var e recEnc
	if err := encodeRecord(&e, r); err != nil {
		return nil, err
	}
	if len(e.buf) > maxRecordBytes {
		return nil, fmt.Errorf("outcome: record for user %d exceeds %d bytes", r.UserID, maxRecordBytes)
	}
	return e.buf, nil
}

// DecodeRecord decodes and validates one payload produced by
// EncodeRecord (or stored in a current-version log).
func DecodeRecord(data []byte) (*Record, error) {
	return decodeRecord(data, classify.NumKinds)
}

// --- decoding helpers ---

// recDec decodes one record payload with a sticky error, so call sites
// stay linear and check failure once. loose records that the payload
// is not in the canonical form encodeRecord writes: a varint longer
// than its value needs, or a known label escaped as a string.
type recDec struct {
	data  []byte
	pos   int
	err   error
	loose bool
}

func (d *recDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *recDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("outcome: record: bad uvarint at offset %d", d.pos)
		return 0
	}
	d.loose = d.loose || n > 1 && d.data[d.pos+n-1] == 0 // minimal encodings end in a non-zero byte
	d.pos += n
	return v
}

func (d *recDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail("outcome: record: bad varint at offset %d", d.pos)
		return 0
	}
	d.loose = d.loose || n > 1 && d.data[d.pos+n-1] == 0
	d.pos += n
	return v
}

func (d *recDec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.data) {
		d.fail("outcome: record: truncated float at offset %d", d.pos)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v
}

func (d *recDec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.fail("outcome: record: truncated byte at offset %d", d.pos)
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *recDec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxStringBytes {
		d.fail("outcome: record: string length %d exceeds limit", n)
		return ""
	}
	if d.pos+int(n) > len(d.data) {
		d.fail("outcome: record: truncated string at offset %d", d.pos)
		return ""
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

func (d *recDec) label() trace.Label {
	idx := d.uvarint()
	if d.err != nil {
		return trace.LabelNone
	}
	if idx < uint64(len(labelTable)) {
		return labelTable[idx]
	}
	if idx == uint64(len(labelTable)) {
		l := trace.Label(d.str())
		for _, known := range labelTable {
			d.loose = d.loose || l == known
		}
		return l
	}
	d.fail("outcome: record: bad label code %d", idx)
	return trace.LabelNone
}

// skipF64s steps over n float64s, failing where n calls of f64 would.
func (d *recDec) skipF64s(n uint64) {
	if d.err != nil {
		return
	}
	if fit := uint64(len(d.data)-d.pos) / 8; n > fit {
		d.pos += int(fit) * 8
		d.fail("outcome: record: truncated float at offset %d", d.pos)
		return
	}
	d.pos += int(n) * 8
}

// floatCols locates a walked record's float columns in its payload.
type floatCols struct {
	features int    // detect.FeatureDim columns of len(Times) values each
	flights  [3]int // gps, honest, all: n dists, then n times
	nFlights [3]int
	pauses   int
	nPauses  int
}

// decodeRecord decodes and validates one record payload against the
// header's kind count: walkRecord makes every check, then the float
// columns are read from where it found them. The feature dimension is
// fixed at detect.FeatureDim (the reader rejects headers with any other
// value).
func decodeRecord(data []byte, kindCount int) (*Record, error) {
	r := &Record{}
	var at floatCols
	if _, err := walkRecord(data, kindCount, r, &at); err != nil {
		return nil, err
	}
	f64 := func(off int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[off:])) }
	if n := len(r.Times); n > 0 {
		r.Features = make([][detect.FeatureDim]float64, n)
		for j := 0; j < detect.FeatureDim; j++ {
			for i := range r.Features {
				r.Features[i][j] = f64(at.features + 8*(j*n+i))
			}
		}
	}
	// Empty columns stay nil: decoded records are in canonical form (see
	// NewRecord).
	flights := func(b int) []levy.Flight {
		n, off := at.nFlights[b], at.flights[b]
		if n == 0 {
			return nil
		}
		out := make([]levy.Flight, n)
		for i := range out {
			out[i] = levy.Flight{Dist: f64(off + 8*i), Time: f64(off + 8*(n+i))}
		}
		return out
	}
	r.GPSFlights, r.HonestFlights, r.AllFlights = flights(0), flights(1), flights(2)
	if at.nPauses > 0 {
		r.Pauses = make([]float64, at.nPauses)
		for i := range r.Pauses {
			r.Pauses[i] = f64(at.pauses + 8*i)
		}
	}
	return r, nil
}

// walkRecord reads one record payload and makes every check a stored
// record must pass, in payload order: well-formed varints, strings and
// labels, float columns present in full, no trailing bytes, then the
// checks of Record.validate. It steps over the float columns, recording
// in at where they are, and fills r's scalar fields and its Times,
// Kinds and Truth columns, reusing their storage; Features, the flight
// blocks and Pauses are left nil. canonical reports whether the payload
// is exactly what encodeRecord writes for the record it holds, so its
// bytes can be carried as-is.
func walkRecord(data []byte, kindCount int, r *Record, at *floatCols) (canonical bool, err error) {
	d := recDec{data: data}
	r.UserID = int(d.varint())
	r.Profile.Friends = int(d.varint())
	r.Profile.Badges = int(d.varint())
	r.Profile.Mayors = int(d.varint())
	r.Profile.CheckinsPerDay = d.f64()
	r.Visits = int(d.uvarint())
	r.Missing = int(d.uvarint())
	r.Times, r.Kinds, r.Truth = r.Times[:0], r.Kinds[:0], r.Truth[:0]
	r.Features, r.GPSFlights, r.HonestFlights, r.AllFlights, r.Pauses = nil, nil, nil, nil, nil

	nCk := d.uvarint()
	if d.err == nil && nCk > 0 {
		// A valid checkin takes at least minCheckinBytes, so the bytes
		// left bound the preallocation, not the untrusted count.
		if hint := int(min(nCk, uint64(len(data)-d.pos)/minCheckinBytes)); cap(r.Times) < hint {
			r.Times = make([]int64, 0, hint)
			r.Kinds = make([]classify.Kind, 0, hint)
			r.Truth = make([]trace.Label, 0, hint)
		}
		var t int64
		for i := uint64(0); i < nCk && d.err == nil; i++ {
			if i == 0 {
				t = d.varint()
			} else {
				t += int64(d.uvarint())
			}
			r.Times = append(r.Times, t)
		}
		for i := uint64(0); i < nCk && d.err == nil; i++ {
			r.Kinds = append(r.Kinds, classify.Kind(d.byte()))
		}
		for i := uint64(0); i < nCk && d.err == nil; i++ {
			r.Truth = append(r.Truth, d.label())
		}
		if d.err == nil {
			// The columns are fixed-width: check the bytes are all there.
			if need := nCk * detect.FeatureDim * 8; uint64(len(d.data)-d.pos) < need {
				d.fail("outcome: record: %d checkins claim %d feature bytes, %d remain",
					nCk, need, len(d.data)-d.pos)
			} else {
				at.features = d.pos
				d.pos += int(need)
			}
		}
	}
	for b := range at.flights {
		n := d.uvarint()
		at.flights[b], at.nFlights[b] = d.pos, int(n)
		d.skipF64s(n) // dists
		d.skipF64s(n) // times
	}
	nP := d.uvarint()
	at.pauses, at.nPauses = d.pos, int(nP)
	d.skipF64s(nP)
	if d.err != nil {
		return false, d.err
	}
	if d.pos != len(d.data) {
		return false, fmt.Errorf("outcome: record for user %d has %d trailing bytes", r.UserID, len(d.data)-d.pos)
	}
	if err := r.check(kindCount); err != nil {
		return false, err
	}
	return !d.loose, nil
}
