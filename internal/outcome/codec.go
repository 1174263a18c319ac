package outcome

// GSO1 record codec, on the primitives and framing of internal/wire.
// See the package comment for the byte-level layout.

import (
	"encoding/binary"
	"fmt"
	"math"

	"geosocial/internal/classify"
	"geosocial/internal/detect"
	"geosocial/internal/levy"
	"geosocial/internal/trace"
	"geosocial/internal/wire"
)

// gso1 is the outcome-log container ("GeoSocial Outcomes"), framed as
// internal/wire frames every container. A record is capped so a
// corrupt length prefix fails before any read.
var gso1 = wire.Format{
	Magic:   [4]byte{'G', 'S', 'O', '1'},
	Version: 1,
	Limit:   1 << 28,
	Prefix:  "outcome",
	Noun:    "an outcome log",
	Payload: "record",
}

const (
	// maxKindCount bounds the header kind count: kinds are stored as
	// single bytes, so anything larger is structurally impossible.
	maxKindCount = 256
	// minCheckinBytes is the least a valid checkin occupies in a record:
	// a time, a kind and a label byte, and its feature vector.
	minCheckinBytes = 3 + 8*detect.FeatureDim
)

// recordPrefix begins every record decode error.
const recordPrefix = "outcome: record"

// putFlights writes one Levy flight block as two float64 columns.
func putFlights(e *wire.Enc, fl []levy.Flight) {
	e.Uvarint(uint64(len(fl)))
	for _, f := range fl {
		e.F64(f.Dist)
	}
	for _, f := range fl {
		e.F64(f.Time)
	}
}

// encodeRecord appends the record's payload to e. The record must have
// passed validate.
func encodeRecord(e *wire.Enc, r *Record) error {
	e.Varint(int64(r.UserID))
	e.Varint(int64(r.Profile.Friends))
	e.Varint(int64(r.Profile.Badges))
	e.Varint(int64(r.Profile.Mayors))
	e.F64(r.Profile.CheckinsPerDay)
	e.Uvarint(uint64(r.Visits))
	e.Uvarint(uint64(r.Missing))

	e.Uvarint(uint64(len(r.Times)))
	var prev int64
	for i, t := range r.Times {
		if i == 0 {
			e.Varint(t)
		} else {
			if t < prev {
				return fmt.Errorf("outcome: user %d: checkin %d out of order", r.UserID, i)
			}
			e.Uvarint(uint64(t - prev))
		}
		prev = t
	}
	for _, k := range r.Kinds {
		e.Byte(byte(k))
	}
	for _, l := range r.Truth {
		e.Label(string(l))
	}
	for j := 0; j < detect.FeatureDim; j++ {
		for i := range r.Features {
			e.F64(r.Features[i][j])
		}
	}
	putFlights(e, r.GPSFlights)
	putFlights(e, r.HonestFlights)
	putFlights(e, r.AllFlights)
	e.Uvarint(uint64(len(r.Pauses)))
	for _, p := range r.Pauses {
		e.F64(p)
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
	var e wire.Enc
	if err := encodeRecord(&e, r); err != nil {
		return nil, err
	}
	if uint64(len(e.Buf)) > gso1.Limit {
		return nil, fmt.Errorf("outcome: record for user %d exceeds %d bytes", r.UserID, gso1.Limit)
	}
	return e.Buf, nil
}

// DecodeRecord decodes and validates one payload produced by
// EncodeRecord (or stored in a current-version log).
func DecodeRecord(data []byte) (*Record, error) {
	return decodeRecord(data, classify.NumKinds)
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
	d := wire.Dec{Data: data, Prefix: recordPrefix}
	r.UserID = int(d.Varint())
	r.Profile.Friends = int(d.Varint())
	r.Profile.Badges = int(d.Varint())
	r.Profile.Mayors = int(d.Varint())
	r.Profile.CheckinsPerDay = d.F64()
	r.Visits = int(d.Uvarint())
	r.Missing = int(d.Uvarint())
	r.Times, r.Kinds, r.Truth = r.Times[:0], r.Kinds[:0], r.Truth[:0]
	r.Features, r.GPSFlights, r.HonestFlights, r.AllFlights, r.Pauses = nil, nil, nil, nil, nil

	nCk := d.Uvarint()
	if d.Err == nil && nCk > 0 {
		// A valid checkin takes at least minCheckinBytes, so the bytes
		// left bound the preallocation, not the untrusted count.
		if hint := int(min(nCk, uint64(len(data)-d.Pos)/minCheckinBytes)); cap(r.Times) < hint {
			r.Times = make([]int64, 0, hint)
			r.Kinds = make([]classify.Kind, 0, hint)
			r.Truth = make([]trace.Label, 0, hint)
		}
		var t int64
		for i := uint64(0); i < nCk && d.Err == nil; i++ {
			if i == 0 {
				t = d.Varint()
			} else {
				t += int64(d.Uvarint())
			}
			r.Times = append(r.Times, t)
		}
		for i := uint64(0); i < nCk && d.Err == nil; i++ {
			r.Kinds = append(r.Kinds, classify.Kind(d.Byte()))
		}
		for i := uint64(0); i < nCk && d.Err == nil; i++ {
			r.Truth = append(r.Truth, trace.Label(d.Label()))
		}
		if d.Err == nil {
			// The columns are fixed-width: check the bytes are all there.
			if need := nCk * detect.FeatureDim * 8; uint64(len(d.Data)-d.Pos) < need {
				d.Fail("%d checkins claim %d feature bytes, %d remain",
					nCk, need, len(d.Data)-d.Pos)
			} else {
				at.features = d.Pos
				d.Pos += int(need)
			}
		}
	}
	for b := range at.flights {
		n := d.Uvarint()
		at.flights[b], at.nFlights[b] = d.Pos, int(n)
		d.SkipF64s(n) // dists
		d.SkipF64s(n) // times
	}
	nP := d.Uvarint()
	at.pauses, at.nPauses = d.Pos, int(nP)
	d.SkipF64s(nP)
	if d.Err != nil {
		return false, d.Err
	}
	if d.Pos != len(d.Data) {
		return false, fmt.Errorf("outcome: record for user %d has %d trailing bytes", r.UserID, len(d.Data)-d.Pos)
	}
	if err := r.check(kindCount); err != nil {
		return false, err
	}
	return !d.Loose, nil
}
