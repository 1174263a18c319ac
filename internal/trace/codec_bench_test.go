package trace_test

// Codec benchmarks: the binary format must beat JSON on both encoded
// size and decode throughput on the same dataset. Run with
//
//	go test -bench Codec -benchtime 3x ./internal/trace
//
// and compare the encoded-bytes metric across the Encode pair and MB/s
// across the Decode pair.

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

var (
	codecOnce sync.Once
	codecDS   *trace.Dataset
	codecJSON []byte
	codecBin  []byte
	codecErr  error
)

// codecFixture generates one shared dataset and its two encodings.
func codecFixture(b *testing.B) (*trace.Dataset, []byte, []byte) {
	b.Helper()
	codecOnce.Do(func() {
		ds, err := synth.Generate(synth.PrimaryConfig().Scale(0.1), rng.New(42))
		if err != nil {
			codecErr = err
			return
		}
		var jbuf, bbuf bytes.Buffer
		if codecErr = ds.WriteJSON(&jbuf); codecErr != nil {
			return
		}
		if codecErr = ds.WriteBinary(&bbuf); codecErr != nil {
			return
		}
		codecDS, codecJSON, codecBin = ds, jbuf.Bytes(), bbuf.Bytes()
	})
	if codecErr != nil {
		b.Fatal(codecErr)
	}
	return codecDS, codecJSON, codecBin
}

// BenchmarkCodecEncodeJSON measures JSON encoding; the encoded-bytes
// metric is the size baseline.
func BenchmarkCodecEncodeJSON(b *testing.B) {
	ds, raw, _ := codecFixture(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(raw)), "encoded-bytes")
}

// BenchmarkCodecEncodeBinary measures binary encoding; compare its
// encoded-bytes against the JSON bench (expect several times smaller).
// allocs/op stays flat in the dataset size because the StreamWriter
// reuses one wire.Enc scratch buffer across users.
func BenchmarkCodecEncodeBinary(b *testing.B) {
	ds, rawJSON, raw := codecFixture(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.WriteBinary(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(raw)), "encoded-bytes")
	b.ReportMetric(float64(len(rawJSON))/float64(len(raw)), "json-size-ratio")
}

// BenchmarkCodecDecodeJSON measures full-dataset JSON decoding (MB/s of
// encoded input).
func BenchmarkCodecDecodeJSON(b *testing.B) {
	_, raw, _ := codecFixture(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadJSON(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecDecodeBinary measures full-dataset binary decoding; the
// MB/s is not directly comparable to the JSON bench (the input is
// smaller), so it also reports decoded users per second via b.N scaling —
// compare ns/op for the whole-dataset decode cost.
func BenchmarkCodecDecodeBinary(b *testing.B) {
	_, _, raw := codecFixture(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadBinary(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecDecodeBinaryStream measures the pure streaming path (no
// dataset materialization): one user in memory at a time. allocs/op is
// part of the contract being measured — the reader recycles its frame
// scratch buffer through a pool instead of allocating per user, so the
// per-user overhead is only the decoded User itself.
func BenchmarkCodecDecodeBinaryStream(b *testing.B) {
	_, _, raw := codecFixture(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := trace.NewStreamReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := sr.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCodecDecodeFrames measures the two-stage ingest split
// (NextFrame + DecodeFrame) that parallel validation is built on.
// Compare against BenchmarkCodecDecodeBinaryStream: the split must cost
// nothing — same throughput, same allocs/op — since Next is now exactly
// this composition plus the duplicate-ID check.
func BenchmarkCodecDecodeFrames(b *testing.B) {
	_, _, raw := codecFixture(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := trace.NewStreamReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for {
			f, err := sr.NextFrame()
			if err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			if _, err := sr.DecodeFrame(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}
