package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geosocial/internal/core"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

// fakeValidate is a ValidateFunc for unit tests: the "result" is
// derived from the dataset bytes (Users = byte count), so different
// contents yield different results and identical contents identical
// ones — enough to exercise caching without the real pipeline. Files
// whose content starts with "FAIL" fail validation.
func fakeValidate(calls *atomic.Int64) ValidateFunc {
	return func(req Request) (*core.StreamResult, error) {
		calls.Add(1)
		data, err := os.ReadFile(req.Path)
		if err != nil {
			return nil, err
		}
		if bytes.HasPrefix(data, []byte("FAIL")) {
			return nil, errors.New("synthetic validation failure")
		}
		return &core.StreamResult{
			Name:      "fake",
			Users:     len(data),
			Partition: core.Partition{Checkins: len(data), Honest: 1},
			Taxonomy:  map[string]int{"honest": 1},
		}, nil
	}
}

// newTestServer builds a watcher-less server over a fresh spool.
func newTestServer(t *testing.T, calls *atomic.Int64, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		SpoolDir:     t.TempDir(),
		Validate:     fakeValidate(calls),
		PollInterval: -1,   // watcher off unless a test opts in
		NoDiskCache:  true, // eviction semantics under test are the memory tier's
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// waitDone blocks until the job leaves pending/running or times out.
func waitDone(t *testing.T, s *Server, id string) JobInfo {
	t.Helper()
	deadline := time.After(10 * time.Second)
	info, ok := s.wait(id, deadline2chan(deadline))
	if !ok && info.Status != StatusDone && info.Status != StatusFailed {
		t.Fatalf("job %s did not finish: %+v", id, info)
	}
	return info
}

// deadline2chan adapts a time channel to the wait cancel channel.
func deadline2chan(t <-chan time.Time) <-chan struct{} {
	c := make(chan struct{})
	go func() {
		<-t
		close(c)
	}()
	return c
}

func TestAddValidatesAndDedupes(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, nil)

	path := filepath.Join(s.cfg.SpoolDir, "a.bin")
	if err := os.WriteFile(path, []byte("hello dataset"), 0o666); err != nil {
		t.Fatal(err)
	}
	info, err := s.Add(path)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	info = waitDone(t, s, info.ID)
	if info.Status != StatusDone || info.Users != len("hello dataset") {
		t.Fatalf("unexpected job state: %+v", info)
	}
	if info.Path != "a.bin" {
		t.Fatalf("path not spool-relative: %q", info.Path)
	}

	// Re-adding the same path is a no-op.
	again, err := s.Add(path)
	if err != nil {
		t.Fatalf("Add again: %v", err)
	}
	if again.ID != info.ID || calls.Load() != 1 {
		t.Fatalf("re-add revalidated: %+v calls=%d", again, calls.Load())
	}

	// A different path with identical bytes completes from cache.
	copyPath := filepath.Join(s.cfg.SpoolDir, "b.bin")
	if err := os.WriteFile(copyPath, []byte("hello dataset"), 0o666); err != nil {
		t.Fatal(err)
	}
	cached, err := s.Add(copyPath)
	if err != nil {
		t.Fatalf("Add copy: %v", err)
	}
	if cached.ID != info.ID {
		t.Fatalf("identical content got a different ID: %s vs %s", cached.ID, info.ID)
	}
	if calls.Load() != 1 {
		t.Fatalf("identical content was revalidated (%d calls)", calls.Load())
	}
}

func TestUploadIdempotent(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, nil)

	info, err := s.Upload(strings.NewReader("payload-1"))
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	info = waitDone(t, s, info.ID)
	if info.Status != StatusDone {
		t.Fatalf("upload job: %+v", info)
	}

	// Identical bytes: same job, no new validation, no stray files.
	again, err := s.Upload(strings.NewReader("payload-1"))
	if err != nil {
		t.Fatalf("Upload again: %v", err)
	}
	if again.ID != info.ID || calls.Load() != 1 {
		t.Fatalf("duplicate upload revalidated: %+v calls=%d", again, calls.Load())
	}
	entries, err := os.ReadDir(s.cfg.SpoolDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("spool has %d entries after duplicate upload, want 1", len(entries))
	}

	if up, done := metric(t, s, "geoserve_uploads_total"), metric(t, s, "geoserve_datasets_validated_total"); up != 2 || done != 1 {
		t.Fatalf("metrics: %v uploads, %v validated; want 2, 1", up, done)
	}
}

func TestFailedValidationReported(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, nil)
	info, err := s.Upload(strings.NewReader("FAIL on purpose"))
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	info = waitDone(t, s, info.ID)
	if info.Status != StatusFailed || !strings.Contains(info.Error, "synthetic") {
		t.Fatalf("want failed job, got %+v", info)
	}
	if fails, done := metric(t, s, "geoserve_validate_failures_total"), metric(t, s, "geoserve_datasets_validated_total"); fails != 1 || done != 0 {
		t.Fatalf("metrics after failure: %v failures, %v validated; want 1, 0", fails, done)
	}
}

// TestFailedJobRetriesOnReupload: a failed validation must not pin its
// checksum forever — transient failures (I/O, mid-copy reads) are
// retried when the same bytes are explicitly added again.
func TestFailedJobRetriesOnReupload(t *testing.T) {
	var calls atomic.Int64
	var failing atomic.Bool
	failing.Store(true)
	s := newTestServer(t, &calls, func(c *Config) {
		inner := fakeValidate(&calls)
		c.Validate = func(req Request) (*core.StreamResult, error) {
			if failing.Load() {
				calls.Add(1)
				return nil, errors.New("transient failure")
			}
			return inner(req)
		}
	})

	info, err := s.Upload(strings.NewReader("flaky dataset"))
	if err != nil {
		t.Fatal(err)
	}
	info = waitDone(t, s, info.ID)
	if info.Status != StatusFailed {
		t.Fatalf("want failed first attempt, got %+v", info)
	}

	failing.Store(false)
	retry, err := s.Upload(strings.NewReader("flaky dataset"))
	if err != nil {
		t.Fatal(err)
	}
	if retry.ID != info.ID {
		t.Fatalf("retry got a different ID")
	}
	retry = waitDone(t, s, retry.ID)
	if retry.Status != StatusDone || retry.Error != "" {
		t.Fatalf("re-upload did not retry the failed job: %+v", retry)
	}
	if calls.Load() != 2 {
		t.Fatalf("want 2 validation attempts, got %d", calls.Load())
	}
}

// TestEvictionRevalidatesFromSurvivingPath: when a dataset is
// registered under several paths and the sort-lowest one has been
// deleted, an eviction-triggered revalidation must use a path that
// still exists.
func TestEvictionRevalidatesFromSurvivingPath(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) { c.CacheCapacity = 1 })

	a := filepath.Join(s.cfg.SpoolDir, "a.bin")
	b := filepath.Join(s.cfg.SpoolDir, "b.bin")
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, []byte("twin content"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	info, err := s.Add(a)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, info.ID)
	if _, err := s.Add(b); err != nil { // second path, same checksum
		t.Fatal(err)
	}

	// Evict the twin's result, then delete the sort-lowest path.
	ev, err := s.Upload(strings.NewReader("evictor"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, ev.ID)
	if err := os.Remove(a); err != nil {
		t.Fatal(err)
	}

	if data, _, ok := s.result(info.ID); !ok || data != nil {
		t.Fatalf("expected evicted result, got %v %v", data, ok)
	}
	got := waitDone(t, s, info.ID)
	if got.Status != StatusDone {
		t.Fatalf("revalidation from the surviving path failed: %+v", got)
	}
}

// TestEvictionWithoutSpoolCopyFailsTheJob: when a result is evicted and
// every registered path for its bytes has been deleted, the job must
// turn failed (retryable by re-adding) instead of reporting "done" with
// no result forever.
func TestEvictionWithoutSpoolCopyFailsTheJob(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) { c.CacheCapacity = 1 })
	ts := httptest.NewServer(s)
	defer ts.Close()

	a, err := s.Upload(strings.NewReader("doomed dataset"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, a.ID)
	if err := os.Remove(filepath.Join(s.cfg.SpoolDir, "upload-"+a.ID+".dataset")); err != nil {
		t.Fatal(err)
	}
	b, err := s.Upload(strings.NewReader("the evictor")) // evicts A
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, b.ID)

	resp := get(t, ts.URL+"/v1/datasets/"+a.ID+"/partition")
	code := resp.StatusCode
	var envelope struct {
		Error string `json:"error"`
	}
	decodeBody(t, resp, &envelope)
	if code != http.StatusUnprocessableEntity || !strings.Contains(envelope.Error, "no spool copy") {
		t.Fatalf("unrecoverable eviction: code=%d body=%+v", code, envelope)
	}
	if info, _ := s.Job(a.ID); info.Status != StatusFailed {
		t.Fatalf("job should be failed: %+v", info)
	}

	// And the failure is retryable: re-uploading the bytes revives it.
	again, err := s.Upload(strings.NewReader("doomed dataset"))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, s, again.ID); got.Status != StatusDone {
		t.Fatalf("re-upload did not revive the job: %+v", got)
	}
}

func TestEvictionRevalidates(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) { c.CacheCapacity = 1 })

	a, err := s.Upload(strings.NewReader("dataset A"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, a.ID)
	b, err := s.Upload(strings.NewReader("dataset B")) // evicts A
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, b.ID)

	// A's result is gone; requesting it re-queues a validation from the
	// spooled bytes.
	data, info, ok := s.result(a.ID)
	if !ok || data != nil {
		t.Fatalf("expected evicted result, got data=%v ok=%v", data, ok)
	}
	if info.Status != StatusPending {
		t.Fatalf("eviction should re-queue, job is %+v", info)
	}
	info = waitDone(t, s, a.ID)
	if info.Status != StatusDone {
		t.Fatalf("revalidation failed: %+v", info)
	}
	if data, _, _ = s.result(a.ID); data == nil {
		t.Fatal("result still missing after revalidation")
	}
	if calls.Load() != 3 {
		t.Fatalf("want 3 validations (A, B, A again), got %d", calls.Load())
	}
}

func TestSpoolWatcherPicksUpStableFiles(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) { c.PollInterval = 5 * time.Millisecond })

	// Temp-looking files must never be ingested.
	if err := os.WriteFile(filepath.Join(s.cfg.SpoolDir, "x.bin.tmp-1-2"), []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.cfg.SpoolDir, "ready.bin"), []byte("spooled bytes"), 0o666); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		jobs := s.Jobs()
		if len(jobs) == 1 && jobs[0].Status == StatusDone {
			if jobs[0].Path != "ready.bin" {
				t.Fatalf("watcher ingested %q", jobs[0].Path)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watcher never ingested the file: %+v", jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSpoolWatcherManifest covers the sharded-corpus spool flow: the
// manifest becomes one job and the shard files it claims are never
// registered as standalone datasets.
func TestSpoolWatcherManifest(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) { c.PollInterval = 5 * time.Millisecond })

	ds, err := synth.Generate(synth.PrimaryConfig().Scale(0.02), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := ds.SaveShards(s.cfg.SpoolDir, trace.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		jobs := s.Jobs()
		if len(jobs) == 1 && jobs[0].Status == StatusDone {
			if jobs[0].Path != filepath.Base(manifest) {
				t.Fatalf("watcher registered %q, want the manifest", jobs[0].Path)
			}
			break
		}
		if len(jobs) > 1 {
			t.Fatalf("shard files leaked into the job list: %+v", jobs)
		}
		if time.Now().After(deadline) {
			t.Fatalf("manifest never ingested: %+v", jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The manifest checksum is semantic: rewriting the manifest with
	// different JSON formatting must not change the dataset ID.
	sum1, err := DatasetChecksum(manifest)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(doc) // same content, different bytes
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, compact, 0o666); err != nil {
		t.Fatal(err)
	}
	sum2, err := DatasetChecksum(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if sum1 != sum2 {
		t.Fatalf("manifest reformatting changed the checksum: %s vs %s", sum1, sum2)
	}
}

// TestSpoolWatcherReleasesShardsWhenManifestRemoved: deleting a
// manifest releases its shard claims, so a kept shard file becomes an
// ordinary standalone dataset instead of being ignored forever.
func TestSpoolWatcherReleasesShardsWhenManifestRemoved(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) { c.PollInterval = 5 * time.Millisecond })

	ds, err := synth.Generate(synth.PrimaryConfig().Scale(0.02), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := ds.SaveShards(s.cfg.SpoolDir, trace.ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "manifest ingested", func() bool {
		jobs := s.Jobs()
		return len(jobs) == 1 && jobs[0].Status == StatusDone
	})

	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "released shard ingested standalone", func() bool {
		jobs := s.Jobs()
		return len(jobs) == 2 && jobs[1].Status == StatusDone &&
			jobs[1].Path == "primary-0000.bin"
	})
}

// TestSpoolWatcherShardBeforeManifest reproduces the real shard-write
// order — shard files land first, the manifest last — with the shards
// stable long enough to be ingested standalone. Once the manifest
// appears it must claim them and the standalone jobs must be dropped.
func TestSpoolWatcherShardBeforeManifest(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) { c.PollInterval = 5 * time.Millisecond })

	// Build a shard set elsewhere, then stage its files into the spool
	// in publication order with a long gap.
	staging := t.TempDir()
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(0.02), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := ds.SaveShards(staging, trace.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	copyFile := func(name string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(staging, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(s.cfg.SpoolDir, name), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}

	copyFile("primary-0000.bin")
	waitFor(t, "shard ingested standalone", func() bool {
		jobs := s.Jobs()
		return len(jobs) == 1 && jobs[0].Status == StatusDone && jobs[0].Path == "primary-0000.bin"
	})

	copyFile("primary-0001.bin")
	copyFile(filepath.Base(manifest))
	waitFor(t, "manifest claimed its shards", func() bool {
		jobs := s.Jobs()
		return len(jobs) == 1 && jobs[0].Status == StatusDone &&
			jobs[0].Path == filepath.Base(manifest)
	})
}

// TestSpoolWatcherReingestsRewrittenFile: overwriting a registered
// spool file must, once the new bytes are stable, produce a new job for
// the new content instead of silently serving the old result forever.
func TestSpoolWatcherReingestsRewrittenFile(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) { c.PollInterval = 5 * time.Millisecond })

	path := filepath.Join(s.cfg.SpoolDir, "mut.bin")
	if err := os.WriteFile(path, []byte("first contents"), 0o666); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first ingest", func() bool {
		jobs := s.Jobs()
		return len(jobs) == 1 && jobs[0].Status == StatusDone
	})
	firstID := s.Jobs()[0].ID

	if err := os.WriteFile(path, []byte("rewritten, longer contents"), 0o666); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rewrite ingested", func() bool {
		jobs := s.Jobs()
		return len(jobs) == 2 && jobs[1].Status == StatusDone
	})
	jobs := s.Jobs()
	if jobs[1].ID == firstID {
		t.Fatalf("rewritten file kept the old checksum: %+v", jobs)
	}
	if jobs[1].Users != len("rewritten, longer contents") {
		t.Fatalf("new job validated stale bytes: %+v", jobs[1])
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCheckpointRunDirLifecycle covers the checkpoint tier's retention
// contract: every job gets a per-dataset run directory, a successful
// job's directory is removed, a failed job's survives for the retry,
// and MaxCheckpointRuns prunes the oldest surviving runs.
func TestCheckpointRunDirLifecycle(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) {
		c.RetainCheckpoints = true
		c.MaxCheckpointRuns = 1
		inner := fakeValidate(&calls)
		c.Validate = func(req Request) (*core.StreamResult, error) {
			if req.CheckpointDir == "" {
				t.Error("job ran without a checkpoint dir")
			} else {
				// Simulate the engine leaving a fragment behind.
				if err := os.MkdirAll(req.CheckpointDir, 0o777); err != nil {
					t.Error(err)
				}
				if err := os.WriteFile(filepath.Join(req.CheckpointDir, "ckpt-x.gsf"), []byte("frag"), 0o666); err != nil {
					t.Error(err)
				}
			}
			return inner(req)
		}
	})

	ok, err := s.Upload(strings.NewReader("fine payload"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, ok.ID)
	if _, err := os.Stat(s.checkpointPath(ok.ID)); !os.IsNotExist(err) {
		t.Fatalf("completed job's checkpoint dir survived: %v", err)
	}

	fail1, err := s.Upload(strings.NewReader("FAIL first"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, fail1.ID)
	dir1 := s.checkpointPath(fail1.ID)
	if _, err := os.Stat(dir1); err != nil {
		t.Fatalf("failed job's checkpoint dir missing: %v", err)
	}
	// Age the first run so the prune ordering is deterministic.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(dir1, old, old); err != nil {
		t.Fatal(err)
	}

	fail2, err := s.Upload(strings.NewReader("FAIL second"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, fail2.ID)
	if _, err := os.Stat(dir1); !os.IsNotExist(err) {
		t.Fatalf("oldest run dir survived the cap: %v", err)
	}
	if _, err := os.Stat(s.checkpointPath(fail2.ID)); err != nil {
		t.Fatalf("newest run dir pruned: %v", err)
	}
}

// gatedReader blocks its first Read until released, signalling entry —
// it parks an Upload mid-copy so a test can run Close underneath it.
type gatedReader struct {
	data    io.Reader
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (r *gatedReader) Read(p []byte) (int, error) {
	r.once.Do(func() { close(r.entered) })
	<-r.release
	return r.data.Read(p)
}

// spoolFiles lists the regular files currently in the spool.
func spoolFiles(t *testing.T, s *Server) []string {
	t.Helper()
	entries, err := os.ReadDir(s.cfg.SpoolDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestUploadRacingCloseLeavesNoStrandedFile covers the Upload/Close
// race: an upload that passes the entry check but reaches register
// after Close has begun gets ErrClosed — and must not strand its staged
// upload-<sum>.dataset in the spool, where no job references it and the
// next start would silently ingest it.
func TestUploadRacingCloseLeavesNoStrandedFile(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, nil)

	gate := &gatedReader{
		data:    strings.NewReader("raced payload"),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Upload(gate)
		errc <- err
	}()
	<-gate.entered // Upload is past the closed check, mid-copy
	s.Close()
	close(gate.release)
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("racing upload returned %v, want ErrClosed", err)
	}
	if left := spoolFiles(t, s); len(left) != 0 {
		t.Fatalf("racing upload stranded spool files: %v", left)
	}
}

// TestUploadRacingCloseKeepsEstablishedFile is the ownership flip side:
// when the raced upload's bytes were already uploaded earlier, the
// established spool file belongs to that prior job and must survive the
// failed re-upload's cleanup.
func TestUploadRacingCloseKeepsEstablishedFile(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, nil)

	info, err := s.Upload(strings.NewReader("kept payload"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, info.ID)
	before := spoolFiles(t, s)
	if len(before) != 1 {
		t.Fatalf("spool after first upload: %v", before)
	}

	gate := &gatedReader{
		data:    strings.NewReader("kept payload"),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Upload(gate)
		errc <- err
	}()
	<-gate.entered
	s.Close()
	close(gate.release)
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("racing upload returned %v, want ErrClosed", err)
	}
	if left := spoolFiles(t, s); len(left) != 1 || left[0] != before[0] {
		t.Fatalf("established upload %v became %v", before, left)
	}
}

func TestCloseLeavesQueuedJobsPending(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s := newTestServer(t, &calls, func(c *Config) {
		c.MaxJobs = 1
		c.Validate = func(Request) (*core.StreamResult, error) {
			started <- struct{}{}
			<-release
			return &core.StreamResult{Name: "slow", Users: 1, Taxonomy: map[string]int{}}, nil
		}
	})

	first, err := s.Upload(strings.NewReader("slow A"))
	if err != nil {
		t.Fatal(err)
	}
	<-started // first job is running, holding the only slot
	second, err := s.Upload(strings.NewReader("slow B"))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	// Only release the running job once shutdown has begun, so the
	// queued job deterministically observes the closed flag.
	for {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release) // let the running job finish draining
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}

	a, _ := s.Job(first.ID)
	b, _ := s.Job(second.ID)
	if a.Status != StatusDone {
		t.Fatalf("running job should have drained: %+v", a)
	}
	if b.Status != StatusPending {
		t.Fatalf("queued job should stay pending across shutdown: %+v", b)
	}
	if _, err := s.Upload(strings.NewReader("late")); err == nil {
		t.Fatal("Upload after Close should fail")
	}
}

// --- HTTP surface ---

func TestHTTPLifecycle(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Upload with wait=1 completes in one request.
	resp, err := http.Post(ts.URL+"/v1/datasets?wait=1", "application/octet-stream",
		strings.NewReader("http dataset"))
	if err != nil {
		t.Fatal(err)
	}
	var up JobInfo
	decodeBody(t, resp, &up)
	if resp.StatusCode != http.StatusOK || up.Status != StatusDone {
		t.Fatalf("upload: code=%d info=%+v", resp.StatusCode, up)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first upload X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/datasets/"+up.ID {
		t.Fatalf("Location = %q", loc)
	}

	// Full status document embeds the result.
	var ds struct {
		JobInfo
		Result *core.StreamResult `json:"result"`
	}
	resp = get(t, ts.URL+"/v1/datasets/"+up.ID)
	decodeBody(t, resp, &ds)
	if ds.Result == nil || ds.Result.Users != len("http dataset") {
		t.Fatalf("dataset document: %+v", ds)
	}

	// Partition and taxonomy sub-resources.
	var part core.Partition
	resp = get(t, ts.URL+"/v1/datasets/"+up.ID+"/partition")
	decodeBody(t, resp, &part)
	if part.Checkins != len("http dataset") {
		t.Fatalf("partition: %+v", part)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("partition X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	var tax map[string]int
	resp = get(t, ts.URL+"/v1/datasets/"+up.ID+"/taxonomy")
	decodeBody(t, resp, &tax)
	if tax["honest"] != 1 {
		t.Fatalf("taxonomy: %+v", tax)
	}

	// Listing shows the one job.
	var list struct {
		Datasets []JobInfo `json:"datasets"`
	}
	resp = get(t, ts.URL+"/v1/datasets")
	decodeBody(t, resp, &list)
	if len(list.Datasets) != 1 || list.Datasets[0].ID != up.ID {
		t.Fatalf("list: %+v", list)
	}

	// Unknown dataset is a 404 with the error envelope.
	resp = get(t, ts.URL+"/v1/datasets/deadbeef")
	var envelope struct {
		Error string `json:"error"`
	}
	code := resp.StatusCode
	decodeBody(t, resp, &envelope)
	if code != http.StatusNotFound || envelope.Error == "" {
		t.Fatalf("unknown id: code=%d body=%+v", code, envelope)
	}

	// Liveness and metrics.
	resp = get(t, ts.URL+"/healthz")
	var health struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	healthCode := resp.StatusCode
	decodeBody(t, resp, &health)
	if healthCode != http.StatusOK || health.Status != "ok" || health.Version == "" {
		t.Fatalf("healthz: %d %+v", healthCode, health)
	}
	resp = get(t, ts.URL+"/metrics")
	metrics := string(readBody(t, resp))
	for _, want := range []string{
		"geoserve_datasets_validated_total 1",
		"geoserve_uploads_total 1",
		"geoserve_cache_capacity 64",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestHTTPWaitSurvivesEviction: a waiting partition fetch for a job
// whose cached result was evicted must block through the automatic
// revalidation and return the result, not a transient 202.
func TestHTTPWaitSurvivesEviction(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) { c.CacheCapacity = 1 })
	ts := httptest.NewServer(s)
	defer ts.Close()

	a, err := s.Upload(strings.NewReader("evictee"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, a.ID)
	b, err := s.Upload(strings.NewReader("the other dataset")) // evicts A
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, b.ID)

	resp := get(t, ts.URL+"/v1/datasets/"+a.ID+"/partition?wait=1")
	var part core.Partition
	code := resp.StatusCode
	decodeBody(t, resp, &part)
	if code != http.StatusOK {
		t.Fatalf("waiting fetch across eviction returned %d", code)
	}
	if part.Checkins != len("evictee") {
		t.Fatalf("revalidated partition wrong: %+v", part)
	}
	if calls.Load() != 3 {
		t.Fatalf("want 3 validations (A, B, A revalidated), got %d", calls.Load())
	}
}

func TestHTTPFailedDataset(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/datasets?wait=1", "application/octet-stream",
		strings.NewReader("FAIL this one"))
	if err != nil {
		t.Fatal(err)
	}
	var up JobInfo
	decodeBody(t, resp, &up)
	if up.Status != StatusFailed {
		t.Fatalf("want failed, got %+v", up)
	}
	resp = get(t, ts.URL+"/v1/datasets/"+up.ID+"/partition")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("partition of failed dataset: %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// The served result document must use exactly the StreamResult schema —
// the field-name contract shared with geovalidate -json (see the
// matching test in internal/core and the round trip in cmd/geovalidate).
func TestHTTPResultFieldNames(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/datasets?wait=1", "application/octet-stream",
		strings.NewReader("schema check"))
	if err != nil {
		t.Fatal(err)
	}
	var up JobInfo
	decodeBody(t, resp, &up)

	resp = get(t, ts.URL+"/v1/datasets/"+up.ID)
	var doc map[string]json.RawMessage
	decodeBody(t, resp, &doc)
	var result map[string]json.RawMessage
	if err := json.Unmarshal(doc["result"], &result); err != nil {
		t.Fatalf("result field: %v", err)
	}
	for _, k := range []string{"name", "format", "users", "partition", "taxonomy"} {
		if _, ok := result[k]; !ok {
			t.Errorf("served result is missing StreamResult key %q (have %v)", k, result)
		}
	}
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s response: %v", resp.Request.URL, err)
	}
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{SpoolDir: t.TempDir()}); err == nil {
		t.Fatal("New accepted a nil Validate")
	}
	var calls atomic.Int64
	if _, err := New(Config{Validate: fakeValidate(&calls)}); err == nil {
		t.Fatal("New accepted an empty SpoolDir")
	}
}

func TestDatasetChecksumStableAndContentAddressed(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.bin")
	b := filepath.Join(dir, "b.bin")
	c := filepath.Join(dir, "c.bin")
	os.WriteFile(a, []byte("same"), 0o666)
	os.WriteFile(b, []byte("same"), 0o666)
	os.WriteFile(c, []byte("different"), 0o666)

	sumA, err := DatasetChecksum(a)
	if err != nil {
		t.Fatal(err)
	}
	sumB, _ := DatasetChecksum(b)
	sumC, _ := DatasetChecksum(c)
	if sumA != sumB {
		t.Fatalf("identical content, different checksums: %s vs %s", sumA, sumB)
	}
	if sumA == sumC {
		t.Fatal("different content, same checksum")
	}
	if len(sumA) != 64 {
		t.Fatalf("checksum %q is not hex sha256", sumA)
	}
	if _, err := DatasetChecksum(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("checksum of missing file should fail")
	}
}
