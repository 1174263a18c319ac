package geosocial

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"geosocial/internal/outcome"
	"geosocial/internal/trace"
)

// TestCorruptEndOfInputFails: a GSB1 stream or GSO1 log whose bytes
// run on past the trailer, or whose gzip CRC-32 or length is wrong,
// fails on every read path instead of reporting a clean end. Each case
// first reads the intact bytes through the same path, which must pass.
func TestCorruptEndOfInputFails(t *testing.T) {
	s := getStudy(t)
	ds := &trace.Dataset{Name: s.Primary.Name, POIs: s.Primary.POIs, Users: s.Primary.Users[:6]}
	var plain bytes.Buffer
	if err := ds.WriteBinary(&plain); err != nil {
		t.Fatal(err)
	}
	newcomer := *ds.Users[0]
	newcomer.ID = 1 << 30
	var delta bytes.Buffer
	if err := (&trace.Dataset{Name: ds.Name, POIs: ds.POIs, Users: []*trace.User{&newcomer}}).WriteBinary(&delta); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	binPath := filepath.Join(dir, "primary.bin")
	if err := os.WriteFile(binPath, plain.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "primary.gso")
	if _, err := ValidateFileOpts(binPath, StreamOptions{OutcomeLog: logPath}); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	gz := func(b []byte) []byte {
		var out bytes.Buffer
		zw := gzip.NewWriter(&out)
		zw.Write(b)
		zw.Close()
		return out.Bytes()
	}
	flip := func(b []byte, back int) []byte { // bit 0 of the byte back from the end
		c := bytes.Clone(b)
		c[len(c)-back] ^= 1
		return c
	}
	extra := func(b []byte, n int) []byte { return append(bytes.Clone(b), make([]byte, n)...) }

	drain := func(next func() error) error {
		for {
			if err := next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	openStream := func(mapped bool) func(string, []byte) error {
		return func(dir string, data []byte) error {
			path := filepath.Join(dir, "in.bin")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return err
			}
			defer trace.SetMmapDisabled(trace.SetMmapDisabled(!mapped))
			st, err := trace.OpenStream(path)
			if err != nil {
				return err
			}
			defer st.Close()
			return drain(func() error { _, err := st.Next(); return err })
		}
	}
	openShard := func(mapped, compress bool) func(string, []byte) error {
		return func(dir string, data []byte) error {
			manifest, err := ds.SaveShards(dir, trace.ShardOptions{Shards: 1, Compress: compress})
			if err != nil {
				return err
			}
			ss, err := trace.OpenShardSet(manifest)
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dir, ss.Manifest.Shards[0].File), data, 0o644); err != nil {
				return err
			}
			defer trace.SetMmapDisabled(trace.SetMmapDisabled(!mapped))
			r, err := ss.OpenShard(0)
			if err != nil {
				return err
			}
			defer r.Close()
			return drain(func() error { _, err := r.Next(); return err })
		}
	}
	appendStream := func(dir string, data []byte) error {
		manifest, err := ds.SaveShards(dir, trace.ShardOptions{Shards: 1})
		if err != nil {
			return err
		}
		aw, err := trace.OpenAppend(manifest)
		if err != nil {
			return err
		}
		return aw.AppendStream(bytes.NewReader(data))
	}
	writeLog := func(dir string, data []byte) string {
		path := filepath.Join(dir, "prior.gso")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	scanLog := func(dir string, data []byte) error {
		return outcome.Scan(writeLog(dir, data), func(*outcome.Record) error { return nil })
	}
	appendLog := func(dir string, data []byte) error {
		return outcome.Append(writeLog(dir, data), filepath.Join(dir, "next.gso"), nil, nil)
	}

	for _, tc := range []struct {
		name           string
		read           func(dir string, data []byte) error
		clean, corrupt []byte
	}{
		{"OpenStream/mapped/8 bytes after", openStream(true), plain.Bytes(), extra(plain.Bytes(), 8)},
		{"OpenStream/buffered/8 bytes after", openStream(false), plain.Bytes(), extra(plain.Bytes(), 8)},
		{"OpenStream/gzip/CRC-32", openStream(true), gz(plain.Bytes()), flip(gz(plain.Bytes()), 8)},
		{"OpenStream/gzip/ISIZE", openStream(true), gz(plain.Bytes()), flip(gz(plain.Bytes()), 1)},
		{"OpenStream/gzip/8 bytes after", openStream(true), gz(plain.Bytes()), gz(extra(plain.Bytes(), 8))},
		{"OpenShard/mapped/8 bytes after", openShard(true, false), plain.Bytes(), extra(plain.Bytes(), 8)},
		{"OpenShard/buffered/8 bytes after", openShard(false, false), plain.Bytes(), extra(plain.Bytes(), 8)},
		{"OpenShard/gzip/CRC-32", openShard(true, true), gz(plain.Bytes()), flip(gz(plain.Bytes()), 8)},
		{"OpenShard/gzip/ISIZE", openShard(true, true), gz(plain.Bytes()), flip(gz(plain.Bytes()), 1)},
		{"OpenShard/gzip/8 bytes after", openShard(true, true), gz(plain.Bytes()), gz(extra(plain.Bytes(), 8))},
		{"AppendStream/8 bytes after", appendStream, delta.Bytes(), extra(delta.Bytes(), 8)},
		{"outcome.Scan/gzip/CRC-32", scanLog, gz(log), flip(gz(log), 8)},
		{"outcome.Scan/4 bytes after", scanLog, log, extra(log, 4)},
		{"outcome.Append/gzip/CRC-32", appendLog, gz(log), flip(gz(log), 8)},
		{"outcome.Append/4 bytes after", appendLog, log, extra(log, 4)},
	} {
		if err := tc.read(t.TempDir(), tc.clean); err != nil {
			t.Errorf("%s: intact input: %v", tc.name, err)
		}
		if err := tc.read(t.TempDir(), tc.corrupt); err == nil {
			t.Errorf("%s: corrupt input read to a clean end", tc.name)
		}
	}
}
