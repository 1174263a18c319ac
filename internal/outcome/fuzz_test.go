package outcome

// Native fuzz target for the GSO1 record decoder: arbitrary bytes must
// decode as the reference decoder does (the same record or the same
// error) — never panic, never allocate unboundedly — a successful
// decode must re-encode to a payload that decodes to the same record
// (the codec's fixed point), and the walk must call the payload
// canonical exactly when that re-encoding reproduces it.

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"geosocial/internal/classify"
	"geosocial/internal/detect"
	"geosocial/internal/levy"
	"geosocial/internal/trace"
	"geosocial/internal/wire"
)

// seedRecord builds a small hand-rolled record exercising every column.
func seedRecord() *Record {
	r := &Record{
		UserID:  7,
		Profile: trace.Profile{Friends: 12, Badges: 3, Mayors: 1, CheckinsPerDay: 4.25},
		Visits:  3,
		Missing: 1,
		Times:   []int64{1000, 1000, 1360},
		Kinds:   []classify.Kind{classify.Honest, classify.Superfluous, classify.Honest},
		Truth:   []trace.Label{trace.LabelHonest, trace.Label("weird"), trace.LabelNone},
		GPSFlights: []levy.Flight{
			{Dist: 1.5, Time: 12}, {Dist: 0.3, Time: 4},
		},
		HonestFlights: []levy.Flight{{Dist: 1.4, Time: 11}},
		AllFlights:    []levy.Flight{{Dist: 1.4, Time: 11}, {Dist: 0.01, Time: 1}},
		Pauses:        []float64{7, 42.5},
	}
	r.Features = make([][detect.FeatureDim]float64, len(r.Times))
	for i := range r.Features {
		for j := 0; j < detect.FeatureDim; j++ {
			r.Features[i][j] = float64(i*detect.FeatureDim+j) / 3
		}
	}
	return r
}

func FuzzRecordDecode(f *testing.F) {
	var e wire.Enc
	if err := encodeRecord(&e, seedRecord()); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), e.Buf...))
	e.Buf = e.Buf[:0]
	if err := encodeRecord(&e, &Record{UserID: -3}); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), e.Buf...))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data, classify.NumKinds)
		ref, refErr := referenceDecodeRecord(data, classify.NumKinds)
		if errText(err) != errText(refErr) {
			t.Fatalf("decode error %q, reference error %q", errText(err), errText(refErr))
		}
		if err != nil {
			return // rejected, fine
		}
		if !hasNaN(rec) && !reflect.DeepEqual(rec, ref) {
			t.Fatalf("decode differs from the reference:\n got %+v\nwant %+v", rec, ref)
		}
		// A record the decoder accepted must re-encode and decode to an
		// identical record (NaN payloads break DeepEqual, so skip those).
		var enc wire.Enc
		if err := encodeRecord(&enc, rec); err != nil {
			t.Fatalf("accepted record failed to re-encode: %v", err)
		}
		// The walk calls a payload canonical exactly when re-encoding
		// reproduces it, which is what lets Append copy it verbatim.
		canonical, err := walkRecord(data, classify.NumKinds, &Record{}, &floatCols{})
		if err != nil {
			t.Fatalf("decoded payload fails the walk: %v", err)
		}
		if same := bytes.Equal(enc.Buf, data); canonical != same {
			t.Fatalf("walk says canonical=%v, re-encoding reproduces the payload: %v", canonical, same)
		}
		again, err := decodeRecord(enc.Buf, classify.NumKinds)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		if hasNaN(rec) {
			return
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("decode/encode/decode not a fixed point:\n first %+v\nsecond %+v", rec, again)
		}
	})
}

// hasNaN reports whether any float column carries a NaN (bit patterns
// survive the codec but defeat DeepEqual).
func hasNaN(r *Record) bool {
	if math.IsNaN(r.Profile.CheckinsPerDay) {
		return true
	}
	for _, x := range r.Features {
		for _, v := range x {
			if math.IsNaN(v) {
				return true
			}
		}
	}
	for _, fl := range [][]levy.Flight{r.GPSFlights, r.HonestFlights, r.AllFlights} {
		for _, f := range fl {
			if math.IsNaN(f.Dist) || math.IsNaN(f.Time) {
				return true
			}
		}
	}
	for _, p := range r.Pauses {
		if math.IsNaN(p) {
			return true
		}
	}
	return false
}
