package outcome

// Differential fuzzing of log compaction: Append carries canonical
// records verbatim and walks them without decoding their float columns,
// so it is checked against referenceAppend, which decodes and re-encodes
// every record. The prior log is built from arbitrary header bytes,
// record payloads and trailer bytes, which also fuzzes the GSO1 header
// and the reader's framing.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"geosocial/internal/classify"
	"geosocial/internal/detect"
	"geosocial/internal/levy"
	"geosocial/internal/trace"
)

// referenceAllocHint caps the reference decoder's preallocation from
// untrusted counts.
const referenceAllocHint = 1 << 16

// referenceFlights reads one Levy flight block (nil when empty).
func referenceFlights(d *recDec) []levy.Flight {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]levy.Flight, 0, min(n, referenceAllocHint))
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, levy.Flight{Dist: d.f64()})
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		out[i].Time = d.f64()
	}
	return out
}

// referenceDecodeRecord is the record decoder before the walk: every
// column read in payload order, floats included, then Record.validate.
// decodeRecord must fail as it does, with the same error text, and
// decode the same record.
func referenceDecodeRecord(data []byte, kindCount int) (*Record, error) {
	d := recDec{data: data}
	r := &Record{}
	r.UserID = int(d.varint())
	r.Profile.Friends = int(d.varint())
	r.Profile.Badges = int(d.varint())
	r.Profile.Mayors = int(d.varint())
	r.Profile.CheckinsPerDay = d.f64()
	r.Visits = int(d.uvarint())
	r.Missing = int(d.uvarint())

	nCk := d.uvarint()
	if d.err == nil && nCk > 0 {
		r.Times = make([]int64, 0, min(nCk, referenceAllocHint))
		var t int64
		for i := uint64(0); i < nCk && d.err == nil; i++ {
			if i == 0 {
				t = d.varint()
			} else {
				t += int64(d.uvarint())
			}
			r.Times = append(r.Times, t)
		}
		r.Kinds = make([]classify.Kind, 0, min(nCk, referenceAllocHint))
		for i := uint64(0); i < nCk && d.err == nil; i++ {
			r.Kinds = append(r.Kinds, classify.Kind(d.byte()))
		}
		r.Truth = make([]trace.Label, 0, min(nCk, referenceAllocHint))
		for i := uint64(0); i < nCk && d.err == nil; i++ {
			r.Truth = append(r.Truth, d.label())
		}
		if d.err == nil {
			// The columns are fixed-width, so bound the allocation by the
			// bytes actually present before trusting the untrusted count.
			if need := nCk * detect.FeatureDim * 8; uint64(len(d.data)-d.pos) < need {
				d.fail("outcome: record: %d checkins claim %d feature bytes, %d remain",
					nCk, need, len(d.data)-d.pos)
			} else {
				r.Features = make([][detect.FeatureDim]float64, nCk)
				for j := 0; j < detect.FeatureDim && d.err == nil; j++ {
					for i := uint64(0); i < nCk && d.err == nil; i++ {
						r.Features[i][j] = d.f64()
					}
				}
			}
		}
	}
	r.GPSFlights = referenceFlights(&d)
	r.HonestFlights = referenceFlights(&d)
	r.AllFlights = referenceFlights(&d)
	nP := d.uvarint()
	if d.err == nil && nP > 0 {
		r.Pauses = make([]float64, 0, min(nP, referenceAllocHint))
		for i := uint64(0); i < nP && d.err == nil; i++ {
			r.Pauses = append(r.Pauses, d.f64())
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("outcome: record for user %d has %d trailing bytes", r.UserID, len(d.data)-d.pos)
	}
	if err := r.validate(kindCount); err != nil {
		return nil, err
	}
	return r, nil
}

// referenceAppend is Append with every carried record decoded in full
// by referenceDecodeRecord, observed, and re-encoded through
// Writer.Write.
func referenceAppend(src, dst string, updates []*Record, observe func(old *Record, superseded bool) error) error {
	superseding := make(map[int]bool, len(updates))
	for _, rec := range updates {
		if superseding[rec.UserID] {
			return fmt.Errorf("outcome: append: duplicate update for user %d", rec.UserID)
		}
		superseding[rec.UserID] = true
	}
	lf, err := Open(src)
	if err != nil {
		return err
	}
	defer lf.Close()
	w, err := Create(dst, lf.Name())
	if err != nil {
		return err
	}
	defer w.Discard()
	for {
		buf, err := lf.payload()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		rec, err := referenceDecodeRecord(buf, lf.kindCount)
		if err != nil {
			return err
		}
		if err := lf.admit(rec.UserID); err != nil {
			return err
		}
		superseded := superseding[rec.UserID]
		if observe != nil {
			if err := observe(rec, superseded); err != nil {
				return err
			}
		}
		if superseded {
			continue
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	for _, rec := range updates {
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return w.Close()
}

// logHeader encodes a GSO1 header.
func logHeader(name string, dim, kinds int) []byte {
	var e recEnc
	e.buf = append(e.buf, logMagic[:]...)
	e.uvarint(logVersion)
	e.str(name)
	e.uvarint(uint64(dim))
	e.uvarint(uint64(kinds))
	return e.buf
}

// payloadOf encodes one record's payload.
func payloadOf(tb testing.TB, r *Record) []byte {
	tb.Helper()
	var e recEnc
	if err := encodeRecord(&e, r); err != nil {
		tb.Fatal(err)
	}
	return e.buf
}

// buildLog frames the non-empty payloads between header and trailer
// bytes (an empty payload would read as the sentinel, so it is left out).
func buildLog(header []byte, payloads [][]byte, trailer []byte) []byte {
	log := append([]byte(nil), header...)
	for _, p := range payloads {
		if len(p) == 0 {
			continue
		}
		log = binary.AppendUvarint(log, uint64(len(p)))
		log = append(log, p...)
	}
	return append(log, trailer...)
}

// observation renders what an observe hook may read of a record.
func observation(r *Record, superseded bool) string {
	return fmt.Sprintf("%d %v %+v %d %d %v %v %q", r.UserID, superseded, r.Profile, r.Visits, r.Missing, r.Times, r.Kinds, r.Truth)
}

func FuzzAppendLog(f *testing.F) {
	hdr := logHeader("fuzz", detect.FeatureDim, classify.NumKinds)
	seed := payloadOf(f, seedRecord())
	trailer := func(n uint64) []byte { return binary.AppendUvarint([]byte{0}, n) }

	// The record decoder's seeds, one to a log.
	var e recEnc
	if err := encodeRecord(&e, &Record{UserID: -3}); err != nil {
		f.Fatal(err)
	}
	for _, p := range [][]byte{seed, e.buf, {}, {0x00}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}} {
		f.Add(hdr, []byte(nil), p, []byte(nil), trailer(1), int64(7))
	}
	// A canonical three-user log, superseding one user and adding one.
	p3, p9 := payloadOf(f, recWithID(3)), payloadOf(f, recWithID(9))
	f.Add(hdr, p3, seed, p9, trailer(3), int64(7))
	f.Add(hdr, p3, seed, p9, trailer(3), int64(5))
	// Zero-padded varints: the user ID (zigzag 14) in two bytes, and the
	// visit count (the uvarint after four varints and a float) in two.
	padded := append([]byte{0x8e, 0x00}, seed[1:]...)
	f.Add(hdr, p3, padded, p9, trailer(3), int64(9))
	if seed[12] != 3 {
		f.Fatalf("seed record's visit count is not at offset 12")
	}
	paddedU := append(append(append([]byte(nil), seed[:12]...), 0x83, 0x00), seed[13:]...)
	f.Add(hdr, p3, paddedU, p9, trailer(3), int64(9))
	// A known label written as a string ("weird" and "other" are the
	// same length, so the payload stays well formed).
	escaped := bytes.Replace(seed, []byte("weird"), []byte("other"), 1)
	f.Add(hdr, p3, escaped, p9, trailer(3), int64(3))
	// A bad trailer count, records out of order, a truncated record.
	f.Add(hdr, p3, seed, p9, trailer(4), int64(7))
	f.Add(hdr, p9, seed, p3, trailer(3), int64(7))
	f.Add(hdr, p3, seed[:len(seed)-3], p9, trailer(3), int64(7))
	// Headers: more kinds than this build knows, a foreign feature
	// dimension, a name longer than the bytes behind it.
	f.Add(logHeader("fuzz", detect.FeatureDim, 200), p3, seed, p9, trailer(3), int64(7))
	unknown := seedRecord()
	unknown.Kinds[1] = classify.Kind(classify.NumKinds)
	f.Add(logHeader("fuzz", detect.FeatureDim, 200), p3, payloadOf(f, unknown), p9, trailer(3), int64(9))
	f.Add(logHeader("fuzz", detect.FeatureDim+1, classify.NumKinds), p3, seed, p9, trailer(3), int64(7))
	f.Add(append(append([]byte(nil), logMagic[:]...), 1, 0xff, 0xff, 0x3f), []byte(nil), []byte(nil), []byte(nil), []byte(nil), int64(7))

	// Inputs run one at a time per process, so one directory serves
	// them all; every file in it is rewritten by each input.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, header, r1, r2, r3, trailer []byte, updID int64) {
		src := filepath.Join(dir, "src.gso")
		log := buildLog(header, [][]byte{r1, r2, r3}, trailer)
		if err := os.WriteFile(src, log, 0o644); err != nil {
			t.Fatal(err)
		}
		updates := []*Record{recWithID(int(updID))}

		var want, got []string
		wantErr := referenceAppend(src, filepath.Join(dir, "want.gso"), updates, func(r *Record, sup bool) error {
			want = append(want, observation(r, sup))
			return nil
		})
		gotErr := Append(src, filepath.Join(dir, "got.gso"), updates, func(r *Record, sup bool) error {
			if r.Features != nil || r.GPSFlights != nil || r.HonestFlights != nil || r.AllFlights != nil || r.Pauses != nil {
				t.Fatal("observed record carries float columns")
			}
			got = append(got, observation(r, sup))
			return nil
		})
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("Append error %q, reference error %q", errText(gotErr), errText(wantErr))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("observed\n%v\nreference observed\n%v", got, want)
		}
		if gotErr == nil {
			g, err := os.ReadFile(filepath.Join(dir, "got.gso"))
			if err != nil {
				t.Fatal(err)
			}
			w, err := os.ReadFile(filepath.Join(dir, "want.gso"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g, w) {
				t.Fatal("Append output differs from the reference's")
			}
		}

		// Allocation: a fixed allowance for the file buffers (three
		// 64 KiB bufio buffers and the first read step) plus a small
		// multiple of the input, so forged lengths and counts buy no
		// memory. The fuzzing worker's own goroutines may allocate in a
		// window, so only an overrun that repeats counts.
		limit := 512<<10 + 64*uint64(len(log))
		n := appendAllocs(src, filepath.Join(dir, "alloc.gso"), updates)
		for try := 1; try < 3 && n > limit; try++ {
			n = min(n, appendAllocs(src, filepath.Join(dir, "alloc.gso"), updates))
		}
		if n > limit {
			t.Fatalf("Append of a %d-byte log allocated %d bytes, want <= %d", len(log), n, limit)
		}
	})
}

// appendAllocs reports the bytes one Append allocates.
func appendAllocs(src, dst string, updates []*Record) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Append(src, dst, updates, nil)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
