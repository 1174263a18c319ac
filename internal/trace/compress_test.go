package trace

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"geosocial/internal/atomicfile"
)

var errInjected = errors.New("injected write failure")

// faultySink fails its nth write (1-based) and every later one. With a
// gate, that write first waits for the gate to close.
type faultySink struct {
	w     io.Writer
	n     int
	gate  chan struct{}
	calls int
}

func (s *faultySink) Write(p []byte) (int, error) {
	if s.calls++; s.calls < s.n {
		return s.w.Write(p)
	}
	if s.gate != nil {
		<-s.gate
	}
	return 0, errInjected
}

// faultyShard makes the compressor of shard k deflate into s, which
// writes through to the shard's temporary file until it fails.
func faultyShard(t *testing.T, k int, s *faultySink) {
	t.Helper()
	saved, calls := compressSink, 0
	compressSink = func(f io.Writer) io.Writer {
		if calls++; calls-1 == k {
			s.w = f
			return s
		}
		return f
	}
	t.Cleanup(func() { compressSink = saved })
}

// stopUsers returns n users for the compressor tests. Each carries fixes
// fixes, about 4 bytes apiece in a frame.
func stopUsers(n, fixes int) []*User {
	users := make([]*User, n)
	for i := range users {
		gps := make([]int64, fixes)
		for j := range gps {
			gps[j] = int64(60 * j)
		}
		users[i] = seamFrame(i, gps, []int64{30})
	}
	return users
}

// TestShardWriterStopsCompressors drives every way a gzip ShardWriter
// can fail, with chunks still queued where the case allows: each must
// return an error, stop every compressor goroutine, and leave no temp
// and no manifest, except a manifest whose commit placed it and only
// the directory fsync failed, which stays with its shards.
func TestShardWriterStopsCompressors(t *testing.T) {
	pois := testDataset().POIs
	// Three shards of six 5,000-fix users: about 120 KB a shard, so one
	// 64 KiB flush reaches each compressor while users are written and
	// one more at Close.
	big := stopUsers(18, 5000)
	small := stopUsers(6, 10)
	save := func(users []*User) func(t *testing.T, dir string) error {
		return func(t *testing.T, dir string) error {
			_, err := (&Dataset{Name: "stop", POIs: pois, Users: users}).SaveShards(dir, ShardOptions{Shards: 3, Compress: true})
			return err
		}
	}
	invalid := seamFrame(99, []int64{60, 0}, nil)
	cases := []struct {
		name     string
		run      func(t *testing.T, dir string) error
		want     string // in the error
		manifest bool   // the set stays published
	}{
		{name: "duplicate user", run: save(append(big[:len(big):len(big)], big[4])), want: "duplicate user ID 4"},
		{name: "invalid user", run: save(append(big[:len(big):len(big)], invalid)), want: "user 99"},
		{name: "compress write", want: "compress stop-0001.bin.gz: " + errInjected.Error(),
			run: func(t *testing.T, dir string) error {
				faultyShard(t, 1, &faultySink{n: 1})
				return save(big)(t, dir)
			}},
		{name: "gzip close", want: "compress stop-0002.bin.gz: " + errInjected.Error(),
			run: func(t *testing.T, dir string) error {
				// The gzip header is the first write; a stream this short
				// leaves the rest to Close.
				faultyShard(t, 2, &faultySink{n: 2})
				return save(small)(t, dir)
			}},
		{name: "stream close", want: "trailer: trace: shard writer: compress stop-0001.bin.gz: " + errInjected.Error(),
			run: func(t *testing.T, dir string) error {
				// Shard 1's compressor fails on its first chunk once every
				// user is written, so the flush in StreamWriter.Close is
				// what meets the failure.
				gate := make(chan struct{})
				faultyShard(t, 1, &faultySink{n: 1, gate: gate})
				w, err := NewShardWriter(dir, "stop", pois, ShardOptions{Shards: 3, Compress: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, u := range big {
					if err := w.WriteUser(u); err != nil {
						t.Fatal(err)
					}
				}
				close(gate)
				<-w.shards[1].c.done
				return w.Close()
			}},
		{name: "commit", want: "stop-0002.bin.gz",
			run: func(t *testing.T, dir string) error {
				if err := os.Mkdir(filepath.Join(dir, "stop-0002.bin.gz"), 0o755); err != nil {
					t.Fatal(err)
				}
				return save(big)(t, dir)
			}},
		{name: "sync dir after shard", want: atomicfile.ErrSyncDir.Error(),
			run: func(t *testing.T, dir string) error {
				failSyncDir(t, 2)
				return save(big)(t, dir)
			}},
		{name: "sync dir after manifest", want: atomicfile.ErrSyncDir.Error(), manifest: true,
			run: func(t *testing.T, dir string) error {
				failSyncDir(t, 4) // three shards, then the manifest
				return save(big)(t, dir)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := runtime.NumGoroutine()
			dir := t.TempDir()
			err := tc.run(t, dir)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var files []string
			for _, e := range entries {
				if atomicfile.IsTemp(e.Name()) {
					t.Errorf("temp %s left behind", e.Name())
				}
				if !e.IsDir() {
					files = append(files, e.Name())
				}
			}
			want := 0
			if tc.manifest {
				want = 4 // the three shards and the manifest
			}
			if len(files) != want {
				t.Errorf("left %v, want %d files", files, want)
			}
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > start; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines, %d at the start", runtime.NumGoroutine(), start)
				}
				runtime.Gosched()
			}
		})
	}
}

// failSyncDir makes the nth directory fsync after a commit fail.
func failSyncDir(t *testing.T, n int) {
	t.Helper()
	calls := 0
	t.Cleanup(atomicfile.SetSyncDirForTest(func(string) error {
		if calls++; calls == n {
			return errors.New("injected directory fsync failure")
		}
		return nil
	}))
}
