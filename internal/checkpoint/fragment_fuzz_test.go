package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// readAllFragment drives a fragment reader over data to the end — keys,
// every section, every chunk — and returns the first error (nil for a
// fragment that decodes cleanly). The reader gets a minimal bufio
// buffer, so what it allocates is its own doing.
func readAllFragment(data []byte) error {
	fr, err := newFragmentReader(bufio.NewReaderSize(bytes.NewReader(data), 16))
	if err != nil {
		return err
	}
	for {
		if _, err := fr.nextSection(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		for {
			if _, err := fr.nextChunk(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
		}
	}
}

// fragmentAllocs runs readAllFragment over data and reports the bytes
// it allocated. Other
// goroutines (another test's, or the fuzzing worker's) may allocate
// inside one measured window, but a read allocates the same on every
// try, so an overrun of limit is measured up to three times and the
// least is kept.
func fragmentAllocs(data []byte, limit uint64) (uint64, error) {
	var n uint64
	var err error
	for try := 0; try < 3 && (try == 0 || n > limit); try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = readAllFragment(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; try == 0 || got < n {
			n = got
		}
	}
	return n, err
}

// allocLimit is the allocation a fragment of n bytes may cost: a small
// multiple of its bytes (scratch growth, strings, the key map) plus a
// constant for the reader and an error's text.
func allocLimit(n int) uint64 { return 16*uint64(n) + 8<<10 }

// TestForgedFragmentLengthAllocBounded: a fragment whose key count,
// string length or chunk length promises far more than follows must
// fail, having allocated in proportion to the bytes that arrived, not
// to the length it declares.
func TestForgedFragmentLengthAllocBounded(t *testing.T) {
	head := append(gsf1.Magic[:], byte(gsf1.Version))
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"key count", binary.AppendUvarint(bytes.Clone(head), maxFragmentKeys)},
		{"key length", binary.AppendUvarint(append(bytes.Clone(head), 1), 1<<20)},
		{"section length", binary.AppendUvarint(append(bytes.Clone(head), 0), 1<<20)},
		{"chunk length", binary.AppendUvarint(append(bytes.Clone(head), 0, 1, 's'), gsf1.Limit+1)},
	} {
		limit := allocLimit(len(tc.data))
		n, err := fragmentAllocs(tc.data, limit)
		if err == nil {
			t.Fatalf("%s: forged fragment decoded cleanly", tc.name)
		}
		if n > limit {
			t.Errorf("%s: %d-byte fragment allocated %d bytes, want <= %d", tc.name, len(tc.data), n, limit)
		}
	}
}

// FuzzFragmentReader feeds arbitrary bytes to the GSF1 reader and reads
// whatever it accepts to the end. Nothing may panic, and decoding may
// allocate at most a small multiple of the input (allocLimit): a
// forged key count, string length or chunk length must not buy memory.
func FuzzFragmentReader(f *testing.F) {
	var buf bytes.Buffer
	fw, err := newFragmentWriter(&buf, map[string]string{"shard": "sha256:abc", "params": "p1"})
	if err != nil {
		f.Fatal(err)
	}
	for _, sect := range []string{"records", "meta"} {
		if err := fw.section(sect); err != nil {
			f.Fatal(err)
		}
		for _, c := range [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte("g"), 300)} {
			if err := fw.chunk(c); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := fw.finish(); err != nil {
		f.Fatal(err)
	}
	frag := buf.Bytes()
	f.Add(bytes.Clone(frag))
	f.Add(bytes.Clone(frag[:len(frag)/2]))
	// Forged lengths: the first chunk of "records" claims the largest
	// legal chunk, and the first section name claims the largest legal
	// string, with the real bytes behind them.
	at := bytes.Index(frag, []byte("records")) + len("records")
	f.Add(append(append(bytes.Clone(frag[:at]), binary.AppendUvarint(nil, gsf1.Limit+1)...), frag[at+1:]...))
	at = bytes.Index(frag, []byte("records")) - 1
	f.Add(append(append(bytes.Clone(frag[:at]), binary.AppendUvarint(nil, 1<<20)...), frag[at+1:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		limit := allocLimit(len(data))
		if n, err := fragmentAllocs(data, limit); n > limit {
			t.Fatalf("%d-byte fragment allocated %d bytes (err %v), want <= %d", len(data), n, err, limit)
		}
	})
}
