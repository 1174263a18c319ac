package trace

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
	fr, err := NewFragmentReader(bufio.NewReaderSize(bytes.NewReader(data), 16))
	if err != nil {
		return err
	}
	_ = fr.Keys()
	for {
		if _, err := fr.NextSection(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		for {
			if _, err := fr.NextChunk(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
		}
	}
}

// fragmentAllocs runs readAllFragment and reports the bytes it
// allocated.
func fragmentAllocs(data []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := readAllFragment(data)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// fragmentAllocLimit is the allocation a fragment of n bytes may cost:
// a small multiple of its bytes (scratch growth, key and value strings,
// the key map) plus a constant for the reader and an error's text.
func fragmentAllocLimit(n int) uint64 { return 16*uint64(n) + 8<<10 }

// TestForgedFragmentLengthAllocBounded: a fragment whose key count,
// string length or chunk length promises far more than follows must
// fail, having allocated in proportion to its bytes.
func TestForgedFragmentLengthAllocBounded(t *testing.T) {
	head := append(fragmentMagic[:], fragmentVersion)
	cases := map[string][]byte{
		"key count":      append(bytes.Clone(head), binary.AppendUvarint(nil, maxFragmentKeys)...),
		"key length":     append(append(bytes.Clone(head), 1), binary.AppendUvarint(nil, maxFragmentString)...),
		"section length": append(append(bytes.Clone(head), 0), binary.AppendUvarint(nil, maxFragmentString)...),
		"chunk length":   append(append(bytes.Clone(head), 0, 1, 's'), binary.AppendUvarint(nil, maxFragmentChunk+1)...),
	}
	for name, data := range cases {
		n, err := fragmentAllocs(data)
		if err == nil {
			t.Fatalf("%s: forged fragment decoded cleanly", name)
		}
		if limit := fragmentAllocLimit(len(data)); n > limit {
			t.Errorf("%s: %d-byte fragment allocated %d bytes, want <= %d", name, len(data), n, limit)
		}
	}
}

// FuzzFragmentReader feeds arbitrary bytes to the GSF1 reader and reads
// whatever it accepts to the end. Nothing may panic, and decoding may
// allocate at most a small multiple of the input (fragmentAllocLimit):
// a forged key count, string length or chunk length must not buy
// memory.
func FuzzFragmentReader(f *testing.F) {
	var buf bytes.Buffer
	fw, err := NewFragmentWriter(&buf, map[string]string{"shard": "sha256:abc", "params": "p1"})
	if err != nil {
		f.Fatal(err)
	}
	for _, sect := range []string{"records", "meta"} {
		if err := fw.Section(sect); err != nil {
			f.Fatal(err)
		}
		for _, c := range [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte("g"), 300)} {
			if err := fw.Chunk(c); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := fw.Finish(); err != nil {
		f.Fatal(err)
	}
	frag := buf.Bytes()
	f.Add(bytes.Clone(frag))
	f.Add(bytes.Clone(frag[:len(frag)/2]))
	// Forged lengths: the first chunk of "records" claims the largest
	// legal chunk, and the first section name claims the largest legal
	// string, with the real bytes behind them.
	at := bytes.Index(frag, []byte("records")) + len("records")
	f.Add(append(append(bytes.Clone(frag[:at]), binary.AppendUvarint(nil, maxFragmentChunk+1)...), frag[at+1:]...))
	at = bytes.Index(frag, []byte("records")) - 1
	f.Add(append(append(bytes.Clone(frag[:at]), binary.AppendUvarint(nil, maxFragmentString)...), frag[at+1:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := fragmentAllocs(data)
		// The reader allocates the same on every try, so only an overrun
		// that repeats is the reader's: the fuzzing worker's own
		// goroutines may allocate inside one measured window.
		limit := fragmentAllocLimit(len(data))
		for try := 1; try < 3 && n > limit; try++ {
			again, _ := fragmentAllocs(data)
			n = min(n, again)
		}
		if n > limit {
			t.Fatalf("%d-byte fragment allocated %d bytes (err %v), want <= %d", len(data), n, err, limit)
		}
	})
}
