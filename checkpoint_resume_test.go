package geosocial

// Crash/resume coverage for checkpointed sharded validation: a run
// interrupted after k of n shard checkpoints and restarted must
// produce a StreamResult and an outcome log byte-identical to an
// uninterrupted run, skipping exactly the k checkpointed shards. The
// interrupted state is constructed deterministically — k fragments
// copied from a completed donor run into a fresh checkpoint directory
// — which is exactly what a kill between the k-th and (k+1)-th commit
// leaves behind (commits are atomic, so no other on-disk state is
// possible). The CI smoke complements this with a real SIGKILL.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geosocial/internal/checkpoint"
	"geosocial/internal/core"
	"geosocial/internal/obs"
	"geosocial/internal/serve"
	"geosocial/internal/trace"
)

// resumeCorpus generates a small sharded corpus for resume tests and
// returns its directory, manifest path, and parsed shard set.
func resumeCorpus(t *testing.T, shards int) (string, string, *trace.ShardSet) {
	t.Helper()
	study, err := GenerateStudy(StudyConfig{Scale: 0.05, Seed: 11})
	if err != nil {
		t.Fatalf("GenerateStudy: %v", err)
	}
	dir := t.TempDir()
	manifest, err := study.Primary.SaveShards(dir, trace.ShardOptions{Shards: shards})
	if err != nil {
		t.Fatalf("SaveShards: %v", err)
	}
	ss, err := trace.OpenShardSet(manifest)
	if err != nil {
		t.Fatalf("OpenShardSet: %v", err)
	}
	return dir, manifest, ss
}

// countingLogger returns a StreamOptions.Logger that writes to a
// buffer, plus a counter of the logged lines containing the given
// marker.
func countingLogger(marker string) (*obs.Logger, func() int) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	return obs.NewLogger(w, obs.LevelInfo, obs.FormatText, "test"), func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, marker) {
				n++
			}
		}
		return n
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// copyCheckpoints re-commits the first k shards' fragments from a
// completed donor store into dst — the on-disk state a crash after k
// atomic commits leaves behind.
func copyCheckpoints(t *testing.T, corpusDir string, ss *trace.ShardSet, donorDir, dstDir, tag string, k int) {
	t.Helper()
	msum := checkpoint.ManifestChecksum(&ss.Manifest)
	donor, err := checkpoint.Open(donorDir, msum, tag)
	if err != nil {
		t.Fatalf("open donor store: %v", err)
	}
	dst, err := checkpoint.Open(dstDir, msum, tag)
	if err != nil {
		t.Fatalf("open dst store: %v", err)
	}
	for i := 0; i < k; i++ {
		sum, err := checkpoint.FileChecksum(filepath.Join(corpusDir, ss.Manifest.Shards[i].File))
		if err != nil {
			t.Fatalf("shard checksum: %v", err)
		}
		frag, err := dst.Begin(sum)
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		meta, ids, err := donor.Load(sum, frag.AddRecord)
		if err != nil || meta == nil {
			t.Fatalf("donor fragment for shard %d: %+v, %v", i, meta, err)
		}
		if err := frag.Commit(meta, ids); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
}

func TestShardedValidationResume(t *testing.T) {
	const shards = 3
	corpusDir, manifest, ss := resumeCorpus(t, shards)
	outDir := t.TempDir()

	// Uninterrupted reference run, no checkpointing.
	baseLog := filepath.Join(outDir, "base.gso")
	baseRes, err := ValidateFileOpts(manifest, StreamOptions{Workers: 4, OutcomeLog: baseLog})
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	baseJSON, err := baseRes.Encode()
	if err != nil {
		t.Fatal(err)
	}
	baseBytes, err := os.ReadFile(baseLog)
	if err != nil {
		t.Fatal(err)
	}

	// Donor run: checkpointing on, runs to completion, commits every
	// shard. Its result must already match the non-checkpointed run.
	donorDir := filepath.Join(outDir, "donor-ck")
	donorLog := filepath.Join(outDir, "donor.gso")
	logger, wrote := countingLogger("checkpoint written")
	donorRes, err := ValidateFileOpts(manifest, StreamOptions{
		Workers: 4, OutcomeLog: donorLog, CheckpointDir: donorDir, Logger: logger,
	})
	if err != nil {
		t.Fatalf("donor run: %v", err)
	}
	if got, _ := donorRes.Encode(); !bytes.Equal(got, baseJSON) {
		t.Fatalf("checkpointing changed the result:\n%s\nvs\n%s", got, baseJSON)
	}
	if wrote() != shards {
		t.Fatalf("donor run committed %d checkpoints, want %d", wrote(), shards)
	}
	tag := validationFingerprint(StreamOptions{}) + "+log"

	// The kill matrix: resume after k of n checkpoints, under both the
	// serial merge and a parallel pool. Results and log bytes must be
	// identical to the uninterrupted run, and exactly k shards skipped.
	for _, workers := range []int{1, 8} {
		for _, k := range []int{0, 1, shards - 1} {
			ckDir := t.TempDir()
			copyCheckpoints(t, corpusDir, ss, donorDir, ckDir, tag, k)
			logPath := filepath.Join(t.TempDir(), "resumed.gso")
			logger, skips := countingLogger("checkpoint hit")
			res, err := ValidateFileOpts(manifest, StreamOptions{
				Workers: workers, OutcomeLog: logPath, CheckpointDir: ckDir, Logger: logger,
			})
			if err != nil {
				t.Fatalf("workers=%d k=%d: resume: %v", workers, k, err)
			}
			if skips() != k {
				t.Errorf("workers=%d k=%d: skipped %d shards, want %d", workers, k, skips(), k)
			}
			got, err := res.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, baseJSON) {
				t.Errorf("workers=%d k=%d: resumed result differs:\n%s\nvs\n%s", workers, k, got, baseJSON)
			}
			logBytes, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(logBytes, baseBytes) {
				t.Errorf("workers=%d k=%d: resumed outcome log differs (%d vs %d bytes)",
					workers, k, len(logBytes), len(baseBytes))
			}
		}
	}
}

// A corrupt fragment must degrade to revalidating that shard — never a
// wrong result, never a hard failure.
func TestResumeSurvivesCorruptFragment(t *testing.T) {
	const shards = 3
	_, manifest, _ := resumeCorpus(t, shards)
	outDir := t.TempDir()

	ckDir := filepath.Join(outDir, "ck")
	logA := filepath.Join(outDir, "a.gso")
	resA, err := ValidateFileOpts(manifest, StreamOptions{Workers: 4, OutcomeLog: logA, CheckpointDir: ckDir})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	wantJSON, _ := resA.Encode()
	wantLog, err := os.ReadFile(logA)
	if err != nil {
		t.Fatal(err)
	}

	frags, err := filepath.Glob(filepath.Join(ckDir, "ckpt-*.gsf"))
	if err != nil || len(frags) != shards {
		t.Fatalf("found %d fragments, want %d (%v)", len(frags), shards, err)
	}
	data, err := os.ReadFile(frags[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(frags[0], data[:len(data)/2], 0o666); err != nil {
		t.Fatal(err)
	}

	logB := filepath.Join(outDir, "b.gso")
	logger, skips := countingLogger("checkpoint hit")
	resB, err := ValidateFileOpts(manifest, StreamOptions{
		Workers: 4, OutcomeLog: logB, CheckpointDir: ckDir, Logger: logger,
	})
	if err != nil {
		t.Fatalf("resume with corrupt fragment: %v", err)
	}
	if skips() != shards-1 {
		t.Errorf("skipped %d shards, want %d (corrupt one revalidates)", skips(), shards-1)
	}
	gotJSON, _ := resB.Encode()
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("result differs after corrupt-fragment recovery")
	}
	gotLog, err := os.ReadFile(logB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLog, wantLog) {
		t.Errorf("outcome log differs after corrupt-fragment recovery")
	}
	// The revalidation rewrote the fragment: a third run skips all n.
	logger, skips = countingLogger("checkpoint hit")
	if _, err := ValidateFileOpts(manifest, StreamOptions{
		Workers: 4, OutcomeLog: filepath.Join(outDir, "c.gso"), CheckpointDir: ckDir, Logger: logger,
	}); err != nil {
		t.Fatal(err)
	}
	if skips() != shards {
		t.Errorf("after recovery run, skipped %d shards, want %d", skips(), shards)
	}
}

// A shard that ends before another shard fails is committed at its own
// end, not at the run's: a run over a short shard and a long one whose
// last frame is corrupt fails, yet leaves the short shard's fragment,
// and once the long shard is repaired the rerun skips the short shard
// and matches a clean run byte for byte.
func TestResumeAfterLongShardFails(t *testing.T) {
	study, err := GenerateStudy(StudyConfig{Scale: 0.05, Seed: 11})
	if err != nil {
		t.Fatalf("GenerateStudy: %v", err)
	}
	ds := study.Primary
	// The writer puts each user in the shard with the fewest bytes so
	// far: the longest trace first, then the rest shortest first, leaves
	// shard 0 short and shard 1 long.
	users := append([]*trace.User(nil), ds.Users...)
	sort.SliceStable(users, func(i, j int) bool { return len(users[i].GPS) < len(users[j].GPS) })
	users = append(users[len(users)-1:], users[:len(users)-1]...)
	dir := t.TempDir()
	w, err := trace.NewShardWriter(dir, ds.Name, ds.POIs, trace.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		if err := w.WriteUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	manifest := w.ManifestPath()
	ss, err := trace.OpenShardSet(manifest)
	if err != nil {
		t.Fatal(err)
	}
	short, long := ss.Manifest.Shards[0], ss.Manifest.Shards[1]
	if short.Users+2 > long.Users {
		t.Fatalf("shards hold %d and %d users, want a short and a long one", short.Users, long.Users)
	}

	outDir := t.TempDir()
	cleanLog := filepath.Join(outDir, "clean.gso")
	clean, err := ValidateFileOpts(manifest, StreamOptions{Workers: 4, OutcomeLog: cleanLog})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	wantJSON, _ := clean.Encode()
	wantLog, err := os.ReadFile(cleanLog)
	if err != nil {
		t.Fatal(err)
	}

	// The stream ends: ... last frame, sentinel 0, user-count trailer
	// (one byte below 128 users). The last frame's payload ends in a
	// checkin field, a uvarint: a continuation bit there runs it past
	// the payload.
	longPath := filepath.Join(dir, long.File)
	good, err := os.ReadFile(longPath)
	if err != nil {
		t.Fatal(err)
	}
	if long.Users >= 128 {
		t.Fatalf("long shard has %d users; the corruption assumes a one-byte trailer", long.Users)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-3] |= 0x80

	for _, workers := range []int{1, 8} {
		if err := os.WriteFile(longPath, bad, 0o666); err != nil {
			t.Fatal(err)
		}
		ckDir := filepath.Join(outDir, fmt.Sprintf("ck-%d", workers))
		logPath := filepath.Join(outDir, fmt.Sprintf("run-%d.gso", workers))
		logger, wrote := countingLogger("checkpoint written")
		_, err := ValidateFileOpts(manifest, StreamOptions{
			Workers: workers, OutcomeLog: logPath, CheckpointDir: ckDir, Logger: logger,
		})
		if err == nil {
			t.Fatalf("workers=%d: run over a corrupt last frame succeeded", workers)
		}
		t.Logf("workers=%d: %d- and %d-user shards: %v", workers, short.Users, long.Users, err)
		frags, err := filepath.Glob(filepath.Join(ckDir, "ckpt-*.gsf"))
		if err != nil || len(frags) != 1 || wrote() != 1 {
			t.Fatalf("workers=%d: failed run left %d fragments, logged %d commits, want the short shard's (%v)",
				workers, len(frags), wrote(), err)
		}

		if err := os.WriteFile(longPath, good, 0o666); err != nil {
			t.Fatal(err)
		}
		logger, skips := countingLogger("checkpoint hit")
		res, err := ValidateFileOpts(manifest, StreamOptions{
			Workers: workers, OutcomeLog: logPath, CheckpointDir: ckDir, Logger: logger,
		})
		if err != nil {
			t.Fatalf("workers=%d: rerun: %v", workers, err)
		}
		if skips() != 1 {
			t.Errorf("workers=%d: rerun skipped %d shards, want the short one", workers, skips())
		}
		if got, _ := res.Encode(); !bytes.Equal(got, wantJSON) {
			t.Errorf("workers=%d: rerun result differs:\n%s\nvs\n%s", workers, got, wantJSON)
		}
		gotLog, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotLog, wantLog) {
			t.Errorf("workers=%d: rerun outcome log differs (%d vs %d bytes)", workers, len(gotLog), len(wantLog))
		}
	}
}

// TestServeResumesInterruptedJob is the service-level end of the
// contract: a job whose validation completes its shard checkpoints but
// then fails (the moral equivalent of a crash mid-publish) keeps its
// checkpoint run directory, and the retry triggered by re-adding the
// dataset skips every checkpointed shard through the real engine.
func TestServeResumesInterruptedJob(t *testing.T) {
	const shards = 3
	study, err := GenerateStudy(StudyConfig{Scale: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	manifest, err := study.Primary.SaveShards(spool, trace.ShardOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}

	logger, skips := countingLogger("checkpoint hit")
	var attempts atomic.Int64
	s, err := serve.New(serve.Config{
		SpoolDir:          spool,
		PollInterval:      -1,
		NoDiskCache:       true,
		RetainCheckpoints: true,
		Validate: func(req serve.Request) (*core.StreamResult, error) {
			if req.CheckpointDir == "" {
				t.Error("job ran without a checkpoint dir")
			}
			res, verr := ValidateFileOpts(req.Path, StreamOptions{
				Workers: 2, CheckpointDir: req.CheckpointDir, Logger: logger,
			})
			if attempts.Add(1) == 1 {
				// Simulated crash after the engine checkpointed every
				// shard but before the job could publish its result.
				return nil, errors.New("interrupted before publish")
			}
			return res, verr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	wait := func(id string) serve.JobInfo {
		deadline := time.Now().Add(60 * time.Second)
		for {
			j, ok := s.Job(id)
			if ok && (j.Status == serve.StatusDone || j.Status == serve.StatusFailed) {
				return j
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish: %+v", id, j)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	info, err := s.Add(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if j := wait(info.ID); j.Status != serve.StatusFailed {
		t.Fatalf("first attempt: %+v, want failed", j)
	}
	if skips() != 0 {
		t.Fatalf("first attempt skipped %d shards, want 0", skips())
	}

	// Re-adding the dataset retries the failed job; the retry must find
	// the first attempt's checkpoints and skip every shard.
	retry, err := s.Add(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if retry.ID != info.ID {
		t.Fatalf("retry got a different job: %s vs %s", retry.ID, info.ID)
	}
	if j := wait(retry.ID); j.Status != serve.StatusDone {
		t.Fatalf("retry: %+v, want done", j)
	}
	if skips() != shards {
		t.Fatalf("retry skipped %d shards, want %d", skips(), shards)
	}
	if attempts.Load() != 2 {
		t.Fatalf("validation ran %d times, want 2", attempts.Load())
	}
}

// Checkpoints are parameter-keyed: fragments written by a logging run
// are invisible to a run with different parameters (here: a different
// alpha), which revalidates everything and still gets the right
// result for its own parameters.
func TestResumeIgnoresMismatchedParams(t *testing.T) {
	const shards = 2
	_, manifest, _ := resumeCorpus(t, shards)
	ckDir := t.TempDir()

	if _, err := ValidateFileOpts(manifest, StreamOptions{Workers: 2, CheckpointDir: ckDir}); err != nil {
		t.Fatalf("seed run: %v", err)
	}

	other := StreamOptions{Workers: 2, CheckpointDir: ckDir}
	other.Params = core.DefaultParams()
	other.Params.Alpha = 250 // non-default matching radius
	logger, skips := countingLogger("checkpoint hit")
	other.Logger = logger
	res, err := ValidateFileOpts(manifest, other)
	if err != nil {
		t.Fatalf("mismatched-params run: %v", err)
	}
	if skips() != 0 {
		t.Errorf("run with different params skipped %d shards, want 0", skips())
	}
	noCk := other
	noCk.CheckpointDir, noCk.Logger = "", nil
	want, err := ValidateFileOpts(manifest, noCk)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := res.Encode()
	wantJSON, _ := want.Encode()
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("mismatched-params result differs from its own clean run")
	}
}
