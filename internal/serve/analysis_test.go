package serve

// Tests for the disk-persistent result cache and the outcome-log /
// analysis HTTP surface, against injected fakes (the facade-level
// integration is covered by server_test.go and cmd/geoserve).

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geosocial/internal/core"
)

// fakeValidateWithLog is fakeValidate plus outcome-log emission: when
// asked for a log it writes a recognizable per-dataset document.
func fakeValidateWithLog(calls *atomic.Int64) ValidateFunc {
	inner := fakeValidate(calls)
	return func(req Request) (*core.StreamResult, error) {
		res, err := inner(req)
		if err == nil && req.OutcomeLog != "" {
			data, _ := os.ReadFile(req.Path)
			if werr := os.WriteFile(req.OutcomeLog, append([]byte("LOG:"), data...), 0o666); werr != nil {
				return nil, werr
			}
		}
		return res, err
	}
}

func TestDiskCacheSurvivesRestart(t *testing.T) {
	spool := t.TempDir()
	var calls atomic.Int64
	newServer := func() *Server {
		t.Helper()
		s, err := New(Config{
			SpoolDir:     spool,
			Validate:     fakeValidate(&calls),
			PollInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := newServer()
	info, err := s1.Upload(strings.NewReader("persist me"))
	if err != nil {
		t.Fatal(err)
	}
	info = waitDone(t, s1, info.ID)
	if info.Status != StatusDone || calls.Load() != 1 {
		t.Fatalf("first validation: %+v calls=%d", info, calls.Load())
	}
	data1, _, ok := s1.result(info.ID)
	if !ok || data1 == nil {
		t.Fatal("result not served")
	}
	s1.Close()

	// A fresh server over the same spool must answer for the same bytes
	// without revalidating: the disk tier is its memory of past lives.
	s2 := newServer()
	defer s2.Close()
	info2, err := s2.Add(filepath.Join(spool, "upload-"+info.ID+".dataset"))
	if err != nil {
		t.Fatal(err)
	}
	if info2.Status != StatusDone || !info2.Cached {
		t.Fatalf("restarted server revalidated: %+v", info2)
	}
	if calls.Load() != 1 {
		t.Fatalf("validations after restart = %d, want 1", calls.Load())
	}
	data2, _, ok := s2.result(info.ID)
	if !ok || string(data2) != string(data1) {
		t.Fatalf("restarted result differs: %q vs %q", data2, data1)
	}
}

func TestDiskCacheServesEvictedResults(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) {
		c.NoDiskCache = false // this test wants the disk tier
		c.CacheCapacity = 1
	})
	a, err := s.Upload(strings.NewReader("dataset A"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, a.ID)
	b, err := s.Upload(strings.NewReader("dataset BB"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, b.ID)
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
	// A's result was evicted from the memory LRU by B; the disk tier
	// must serve it without a revalidation.
	data, info, ok := s.result(a.ID)
	if !ok || data == nil {
		t.Fatalf("evicted result not served from disk: %+v", info)
	}
	if calls.Load() != 2 {
		t.Fatalf("disk fall-through revalidated: calls = %d", calls.Load())
	}
}

// analysisServer builds a server with outcome retention and a counting
// fake analyzer for one kind.
func analysisServer(t *testing.T, analyzeCalls *atomic.Int64) *Server {
	t.Helper()
	var calls atomic.Int64
	s, err := New(Config{
		SpoolDir:       t.TempDir(),
		Validate:       fakeValidateWithLog(&calls),
		PollInterval:   -1,
		RetainOutcomes: true,
		AnalysisKinds:  []string{"summary", "levy"},
		Analyze: func(logPath, kind string) ([]byte, error) {
			analyzeCalls.Add(1)
			data, err := os.ReadFile(logPath)
			if err != nil {
				return nil, err
			}
			return []byte(fmt.Sprintf("{\n  \"kind\": %q,\n  \"log\": %q\n}\n", kind, data)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestHTTPOutcomesAndAnalysis(t *testing.T) {
	var analyzeCalls atomic.Int64
	s := analysisServer(t, &analyzeCalls)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/datasets?wait=1", "application/octet-stream",
		strings.NewReader("outcome dataset"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := strings.TrimPrefix(resp.Header.Get("Location"), "/v1/datasets/")

	// The outcomes endpoint serves the raw log bytes.
	resp, err = http.Get(ts.URL + "/v1/datasets/" + id + "/outcomes")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "LOG:outcome dataset" {
		t.Fatalf("outcomes endpoint: %d %q", resp.StatusCode, body)
	}

	// First analysis fetch computes, second hits the cache.
	get := func(kind string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/datasets/" + id + "/analysis/" + kind)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("X-Cache"), string(body)
	}
	code, cache, body1 := get("summary")
	if code != http.StatusOK || cache != "miss" || !strings.Contains(body1, `"summary"`) {
		t.Fatalf("first analysis: %d %s %q", code, cache, body1)
	}
	code, cache, body2 := get("summary")
	if code != http.StatusOK || cache != "hit" || body2 != body1 {
		t.Fatalf("second analysis: %d %s (equal=%v)", code, cache, body2 == body1)
	}
	if analyzeCalls.Load() != 1 {
		t.Fatalf("analyze ran %d times, want 1", analyzeCalls.Load())
	}

	// A different kind is its own cache entry.
	if code, cache, _ := get("levy"); code != http.StatusOK || cache != "miss" {
		t.Fatalf("levy analysis: %d %s", code, cache)
	}
	if analyzeCalls.Load() != 2 {
		t.Fatalf("analyze ran %d times, want 2", analyzeCalls.Load())
	}

	// Unknown kinds and unknown datasets are 404s.
	if code, _, _ := get("nonsense"); code != http.StatusNotFound {
		t.Fatalf("unknown kind = %d, want 404", code)
	}
	resp, err = http.Get(ts.URL + "/v1/datasets/feedbeef/analysis/summary")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset = %d, want 404", resp.StatusCode)
	}

	// The metrics counter reflects the two computed analyses.
	if n := metric(t, s, "geoserve_analyses_total"); n != 2 {
		t.Fatalf("geoserve_analyses_total = %v, want 2", n)
	}
}

// TestParamsTagNamespacesPersistence pins the staleness guard: a
// server restarted with a different validation-parameter tag must not
// reuse results persisted under the old parameters.
func TestParamsTagNamespacesPersistence(t *testing.T) {
	spool := t.TempDir()
	var calls atomic.Int64
	newServer := func(tag string) *Server {
		t.Helper()
		s, err := New(Config{
			SpoolDir:     spool,
			Validate:     fakeValidate(&calls),
			PollInterval: -1,
			ParamsTag:    tag,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := newServer("alpha500")
	info, err := s1.Upload(strings.NewReader("params matter"))
	if err != nil {
		t.Fatal(err)
	}
	info = waitDone(t, s1, info.ID)
	s1.Close()
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
	spoolFile := filepath.Join(spool, "upload-"+info.ID+".dataset")

	// Same tag: served from the persisted tier, no revalidation.
	s2 := newServer("alpha500")
	if got, err := s2.Add(spoolFile); err != nil || !got.Cached {
		t.Fatalf("same-tag restart: %+v err=%v", got, err)
	}
	s2.Close()
	if calls.Load() != 1 {
		t.Fatalf("same tag revalidated: calls = %d", calls.Load())
	}

	// Different tag: fresh namespace, must revalidate.
	s3 := newServer("alpha250")
	defer s3.Close()
	got, err := s3.Add(spoolFile)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Fatalf("different tag served stale result: %+v", got)
	}
	waitDone(t, s3, info.ID)
	if calls.Load() != 2 {
		t.Fatalf("different tag: calls = %d, want 2", calls.Load())
	}
}

// TestDiskTiersPruned pins the retention caps: the persisted cache and
// outcome-log tiers stay bounded at their configured file counts.
func TestDiskTiersPruned(t *testing.T) {
	spool := t.TempDir()
	var calls atomic.Int64
	s, err := New(Config{
		SpoolDir:            spool,
		Validate:            fakeValidateWithLog(&calls),
		PollInterval:        -1,
		RetainOutcomes:      true,
		MaxDiskCacheEntries: 2,
		MaxOutcomeLogs:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		info, err := s.Upload(strings.NewReader(fmt.Sprintf("dataset number %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, info.ID)
	}
	count := func(dir, suffix string) int {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), suffix) {
				n++
			}
		}
		return n
	}
	if got := count(filepath.Join(spool, "cache"), ".json"); got > 2 {
		t.Fatalf("disk cache holds %d entries, cap 2", got)
	}
	if got := count(filepath.Join(spool, "outcomes"), ".gso"); got > 2 {
		t.Fatalf("outcome dir holds %d logs, cap 2", got)
	}
}

// TestPrunedOutcomeLogRegenerates pins the pruning recovery path: a
// dataset whose outcome log was pruned (or otherwise lost) revalidates
// on re-add — a cached result alone never short-circuits log
// regeneration.
func TestPrunedOutcomeLogRegenerates(t *testing.T) {
	spool := t.TempDir()
	var calls atomic.Int64
	s, err := New(Config{
		SpoolDir:       spool,
		Validate:       fakeValidateWithLog(&calls),
		PollInterval:   -1,
		RetainOutcomes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	info, err := s.Upload(strings.NewReader("log will vanish"))
	if err != nil {
		t.Fatal(err)
	}
	info = waitDone(t, s, info.ID)
	logPath := filepath.Join(spool, "outcomes", info.ID+".gso")
	if _, err := os.Stat(logPath); err != nil {
		t.Fatalf("log not written: %v", err)
	}
	if err := os.Remove(logPath); err != nil {
		t.Fatal(err)
	}
	// Re-adding the same bytes must revalidate (regenerating the log),
	// not serve the cached result with the endpoints broken.
	got, err := s.Add(filepath.Join(spool, "upload-"+info.ID+".dataset"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status == StatusDone && got.Cached {
		t.Fatalf("cached result short-circuited log regeneration: %+v", got)
	}
	waitDone(t, s, info.ID)
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (one regeneration)", calls.Load())
	}
	if _, err := os.Stat(logPath); err != nil {
		t.Fatalf("log not regenerated: %v", err)
	}
}

// TestCorruptDiskCacheEntryRevalidates pins the recovery path: a torn
// disk-cache write (crash mid-rename, power loss) must not poison its
// dataset — the corrupt entry is dropped and the dataset revalidated
// from the spool, exactly as for an eviction.
func TestCorruptDiskCacheEntryRevalidates(t *testing.T) {
	spool := t.TempDir()
	var calls atomic.Int64
	newServer := func() *Server {
		t.Helper()
		s, err := New(Config{SpoolDir: spool, Validate: fakeValidate(&calls), PollInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := newServer()
	info, err := s1.Upload(strings.NewReader("soon to be torn"))
	if err != nil {
		t.Fatal(err)
	}
	info = waitDone(t, s1, info.ID)
	s1.Close()
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}

	// Tear the persisted entry, then restart over the same spool.
	entry := filepath.Join(spool, "cache", info.ID+".json")
	if err := os.WriteFile(entry, []byte(`{"name": "torn`), 0o666); err != nil {
		t.Fatal(err)
	}
	s2 := newServer()
	defer s2.Close()
	if _, err := s2.Add(filepath.Join(spool, "upload-"+info.ID+".dataset")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s2)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/datasets/" + info.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"result"`) {
		t.Fatalf("corrupt entry not recovered: %d %s", resp.StatusCode, body)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls after recovery = %d, want 2 (one revalidation)", calls.Load())
	}
	// The rewritten disk entry must be intact for the next life.
	if data, err := os.ReadFile(entry); err != nil || len(data) == 0 {
		t.Fatalf("disk entry not rewritten: %v (%d bytes)", err, len(data))
	}
	if _, err := core.DecodeStreamResult(mustReadFile(t, entry)); err != nil {
		t.Fatalf("rewritten disk entry corrupt: %v", err)
	}
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAnalysisSingleFlight pins the dedupe: N concurrent requests for
// the same uncached (dataset, kind) run the analysis exactly once.
func TestAnalysisSingleFlight(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	var analyzeCalls atomic.Int64
	s, err := New(Config{
		SpoolDir:       t.TempDir(),
		Validate:       fakeValidateWithLog(&calls),
		PollInterval:   -1,
		RetainOutcomes: true,
		AnalysisKinds:  []string{"summary"},
		Analyze: func(logPath, kind string) ([]byte, error) {
			analyzeCalls.Add(1)
			<-release
			return []byte(`{"kind":"summary"}`), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	info, err := s.Upload(strings.NewReader("single flight"))
	if err != nil {
		t.Fatal(err)
	}
	info = waitDone(t, s, info.ID)

	const n = 6
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/datasets/" + info.ID + "/analysis/summary")
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// Wait until the runner is inside Analyze, then let it finish.
	for analyzeCalls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if got := analyzeCalls.Load(); got != 1 {
		t.Fatalf("analysis ran %d times for %d concurrent requests, want 1", got, n)
	}
}

func TestHTTPOutcomesDisabled(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, nil) // RetainOutcomes off
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/datasets?wait=1", "application/octet-stream",
		strings.NewReader("no logs here"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := strings.TrimPrefix(resp.Header.Get("Location"), "/v1/datasets/")
	for _, ep := range []string{"/outcomes", "/analysis/summary"} {
		resp, err := http.Get(ts.URL + "/v1/datasets/" + id + ep)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s with outcomes disabled = %d, want 404", ep, resp.StatusCode)
		}
	}
}

// TestAnalysisSurvivesRestart pins the satellite behaviour end to end:
// a restarted server serves both the cached result and the cached
// analysis for a dataset validated in a previous life, without
// revalidating or re-analyzing.
func TestAnalysisSurvivesRestart(t *testing.T) {
	spool := t.TempDir()
	var analyzeCalls, validateCalls atomic.Int64
	newServer := func() *Server {
		t.Helper()
		s, err := New(Config{
			SpoolDir:       spool,
			Validate:       fakeValidateWithLog(&validateCalls),
			PollInterval:   -1,
			RetainOutcomes: true,
			AnalysisKinds:  []string{"summary"},
			Analyze: func(logPath, kind string) ([]byte, error) {
				analyzeCalls.Add(1)
				return []byte(`{"kind":"summary"}`), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := newServer()
	info, err := s1.Upload(strings.NewReader("restart analysis"))
	if err != nil {
		t.Fatal(err)
	}
	info = waitDone(t, s1, info.ID)
	ts1 := httptest.NewServer(s1)
	resp, err := http.Get(ts1.URL + "/v1/datasets/" + info.ID + "/analysis/summary")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ts1.Close()
	s1.Close()
	if validateCalls.Load() != 1 || analyzeCalls.Load() != 1 {
		t.Fatalf("first life: validate=%d analyze=%d", validateCalls.Load(), analyzeCalls.Load())
	}

	s2 := newServer()
	defer s2.Close()
	if _, err := s2.Add(filepath.Join(spool, "upload-"+info.ID+".dataset")); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/v1/datasets/" + info.ID + "/analysis/summary")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("restarted analysis: %d %s %q", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	if validateCalls.Load() != 1 || analyzeCalls.Load() != 1 {
		t.Fatalf("restart recomputed: validate=%d analyze=%d", validateCalls.Load(), analyzeCalls.Load())
	}
}
