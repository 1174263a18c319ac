package serve

// Tests for the append endpoint and the incremental-update plumbing:
// which validation path runs for an appended dataset, how the new job
// relates to the old one, and how the HTTP surface exposes both. The
// byte-identity of incremental and full validation is the engine's
// contract, pinned end-to-end in the root package's tests; here the
// ValidateFunc is an injected fake that records every Request, so the
// scheduling itself is observable.

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"geosocial/internal/core"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

// spoolShardSet generates a small corpus and saves it as a 2-shard set
// in the server's spool, returning the dataset and its manifest path.
func spoolShardSet(t *testing.T, s *Server) (*trace.Dataset, string) {
	t.Helper()
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(0.02), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := ds.SaveShards(s.cfg.SpoolDir, trace.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ds, manifest
}

// deltaStream encodes users as a GSB1 delta stream for ds — the append
// endpoint's wire format.
func deltaStream(t *testing.T, ds *trace.Dataset, users ...*trace.User) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	sw, err := trace.NewStreamWriter(&buf, ds.Name, ds.POIs)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		if err := sw.WriteUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

// freshUser builds a brand-new (empty-trace) user with an ID beyond
// every existing one.
func freshUser(ds *trace.Dataset) *trace.User {
	maxID := 0
	for _, u := range ds.Users {
		if u.ID > maxID {
			maxID = u.ID
		}
	}
	return &trace.User{ID: maxID + 1, Days: 7}
}

// loggingValidate wraps fakeValidate so the outcome log is actually
// written — the incremental path requires the previous generation's log
// on disk.
func loggingValidate(t *testing.T, calls *atomic.Int64) ValidateFunc {
	inner := fakeValidate(calls)
	return func(req Request) (*core.StreamResult, error) {
		if req.OutcomeLog != "" {
			if err := os.WriteFile(req.OutcomeLog, []byte("LOG"), 0o666); err != nil {
				t.Error(err)
			}
		}
		return inner(req)
	}
}

// withUpdate answers full requests through full and incremental ones
// (Request.Prev set) through update, counting the incremental calls.
func withUpdate(full ValidateFunc, updates *atomic.Int64, update ValidateFunc) ValidateFunc {
	return func(req Request) (*core.StreamResult, error) {
		if req.Prev == nil {
			return full(req)
		}
		updates.Add(1)
		return update(req)
	}
}

// fakeUpdate is an incremental validation that succeeds: it writes the
// new log and derives the result from Request.Prev.
func fakeUpdate(t *testing.T) ValidateFunc {
	return func(req Request) (*core.StreamResult, error) {
		if req.OutcomeLog != "" {
			if err := os.WriteFile(req.OutcomeLog, []byte("LOG2"), 0o666); err != nil {
				t.Error(err)
			}
		}
		return &core.StreamResult{Name: "fake", Users: req.Prev.Users + 1, Taxonomy: map[string]int{}}, nil
	}
}

// recordRequests wraps v so every Request it receives is kept, in call
// order, for the test to inspect.
func recordRequests(v ValidateFunc) (ValidateFunc, func() []Request) {
	var mu sync.Mutex
	var reqs []Request
	record := func(req Request) (*core.StreamResult, error) {
		mu.Lock()
		reqs = append(reqs, req)
		mu.Unlock()
		return v(req)
	}
	recorded := func() []Request {
		mu.Lock()
		defer mu.Unlock()
		return append([]Request(nil), reqs...)
	}
	return record, recorded
}

// TestAppendRunsIncrementalUpdate: appending to a done shard-set job
// registers a new job under the grown corpus's checksum, and — with the
// previous result cached and its outcome log retained — that job's
// request carries the previous generation in Request.Prev and PrevLog.
// The old job keeps serving the superseded generation.
func TestAppendRunsIncrementalUpdate(t *testing.T) {
	var calls, updates atomic.Int64
	var requests func() []Request
	s := newTestServer(t, &calls, func(c *Config) {
		c.RetainOutcomes = true
		c.Validate, requests = recordRequests(withUpdate(loggingValidate(t, &calls), &updates, fakeUpdate(t)))
	})
	ds, manifest := spoolShardSet(t, s)
	info, err := s.Add(manifest)
	if err != nil {
		t.Fatal(err)
	}
	info = waitDone(t, s, info.ID)
	if info.Status != StatusDone {
		t.Fatalf("base job: %+v", info)
	}

	grown, err := s.Append(info.ID, deltaStream(t, ds, freshUser(ds)))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if grown.ID == info.ID {
		t.Fatal("append did not change the dataset ID")
	}
	grown = waitDone(t, s, grown.ID)
	if grown.Status != StatusDone {
		t.Fatalf("grown job: %+v", grown)
	}
	if updates.Load() != 1 || calls.Load() != 1 {
		t.Fatalf("want 1 full validation then 1 incremental update, got %d and %d", calls.Load(), updates.Load())
	}
	reqs := requests()
	if len(reqs) != 2 || reqs[0].Prev != nil {
		t.Fatalf("requests: %+v", reqs)
	}
	if prev := reqs[1].Prev; prev == nil || prev.Users != info.Users {
		t.Fatalf("grown job's request does not carry the previous result: %+v", reqs[1])
	}
	if _, err := os.Stat(reqs[1].PrevLog); err != nil {
		t.Fatalf("grown job's request does not carry the previous log: %v", err)
	}
	if n := metric(t, s, "geoserve_incremental_updates_total"); n != 1 {
		t.Fatalf("metrics missed the update: geoserve_incremental_updates_total = %v", n)
	}
	if n := metric(t, s, "geoserve_cache_hits_total"); n != 0 {
		t.Fatalf("internal previous-result lookup counted as a client cache hit: geoserve_cache_hits_total = %v", n)
	}
	if old, ok := s.Job(info.ID); !ok || old.Status != StatusDone {
		t.Fatalf("old generation's job disturbed: %+v", old)
	}
}

// TestConcurrentAppendsSerialize: concurrent appends to one dataset
// must serialize into successive generations — every acknowledged
// append's data reaches a delta shard on disk, none silently lost to a
// delta-shard or manifest overwrite. An append that resolves the spool
// path only after another append already re-bound it to the grown
// corpus's checksum may be refused, but it must fail loudly, never
// acknowledge and drop data.
func TestConcurrentAppendsSerialize(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, nil)
	ds, manifest := spoolShardSet(t, s)
	info, err := s.Add(manifest)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, info.ID)

	const n = 4
	base := freshUser(ds).ID
	// Pre-encode the streams: the race under test is Append itself.
	streams := make([]*bytes.Reader, n)
	for i := range streams {
		streams[i] = deltaStream(t, ds, &trace.User{ID: base + i, Days: 7})
	}
	infos := make([]JobInfo, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			infos[i], errs[i] = s.Append(info.ID, streams[i])
		}()
	}
	close(start)
	wg.Wait()

	acked := make(map[int]bool) // delta user IDs of acknowledged appends
	seen := make(map[string]bool)
	for i, err := range errs {
		if err != nil {
			// The only legitimate refusal: the dataset had already moved
			// on under this ID before the path was resolved.
			if !strings.Contains(err.Error(), "no spool copy") {
				t.Fatalf("append %d: %v", i, err)
			}
			continue
		}
		acked[base+i] = true
		if seen[infos[i].ID] {
			t.Fatalf("two acknowledged appends share dataset ID %s", infos[i].ID)
		}
		seen[infos[i].ID] = true
	}
	if len(acked) == 0 {
		t.Fatal("no append succeeded")
	}

	ss, err := trace.OpenShardSet(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Manifest.Generation != len(acked) {
		t.Fatalf("generation %d after %d acknowledged appends", ss.Manifest.Generation, len(acked))
	}
	deltas, err := trace.MergeSets(ss, 0)
	if err != nil {
		t.Fatalf("delta shards do not decode: %v", err)
	}
	for _, id := range deltas.IDs() {
		if !acked[id] {
			t.Errorf("delta user %d on disk was never acknowledged", id)
		}
		delete(acked, id)
	}
	if len(acked) > 0 {
		t.Fatalf("acknowledged appends missing from disk: %v", acked)
	}
}

// TestAppendFallsBackToFullValidation covers both degraded paths: with
// no retained outcome log the incremental inputs are unavailable and no
// request carries Request.Prev; with inputs available but the
// incremental request failing, one retry without Prev (and with the
// checkpoint dir) decides and the job still completes.
func TestAppendFallsBackToFullValidation(t *testing.T) {
	t.Run("no inputs", func(t *testing.T) {
		var calls, updates atomic.Int64
		s := newTestServer(t, &calls, func(c *Config) {
			// RetainOutcomes off: no previous log can exist.
			c.Validate = withUpdate(fakeValidate(&calls), &updates, func(Request) (*core.StreamResult, error) {
				return nil, errors.New("must not run")
			})
		})
		ds, manifest := spoolShardSet(t, s)
		info, err := s.Add(manifest)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, info.ID)
		grown, err := s.Append(info.ID, deltaStream(t, ds, freshUser(ds)))
		if err != nil {
			t.Fatal(err)
		}
		grown = waitDone(t, s, grown.ID)
		if grown.Status != StatusDone {
			t.Fatalf("grown job: %+v", grown)
		}
		if updates.Load() != 0 {
			t.Fatalf("%d requests carried Prev without its inputs", updates.Load())
		}
		if calls.Load() != 2 {
			t.Fatalf("want 2 full validations (base + grown), got %d", calls.Load())
		}
	})
	t.Run("update fails", func(t *testing.T) {
		var calls, updates atomic.Int64
		var requests func() []Request
		s := newTestServer(t, &calls, func(c *Config) {
			c.RetainOutcomes = true
			c.RetainCheckpoints = true
			c.Validate, requests = recordRequests(withUpdate(loggingValidate(t, &calls), &updates,
				func(Request) (*core.StreamResult, error) {
					return nil, errors.New("synthetic update failure")
				}))
		})
		ds, manifest := spoolShardSet(t, s)
		info, err := s.Add(manifest)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, info.ID)
		grown, err := s.Append(info.ID, deltaStream(t, ds, freshUser(ds)))
		if err != nil {
			t.Fatal(err)
		}
		grown = waitDone(t, s, grown.ID)
		if grown.Status != StatusDone {
			t.Fatalf("grown job after update failure: %+v", grown)
		}
		if updates.Load() != 1 || calls.Load() != 2 {
			t.Fatalf("want 1 failed update then a full validation: updates=%d calls=%d",
				updates.Load(), calls.Load())
		}
		reqs := requests()
		if len(reqs) != 3 {
			t.Fatalf("want 3 requests (base, incremental, retry), got %d", len(reqs))
		}
		if first := reqs[1]; first.Prev == nil || first.PrevLog == "" {
			t.Fatalf("grown job's first request carries no previous generation: %+v", first)
		}
		if retry := reqs[2]; retry.Prev != nil || retry.PrevLog != "" || retry.CheckpointDir == "" || retry.Path != reqs[1].Path {
			t.Fatalf("retry is not a full request with the checkpoint dir: %+v", retry)
		}
		if n := metric(t, s, "geoserve_incremental_updates_total"); n != 0 {
			t.Fatalf("failed update counted as incremental: geoserve_incremental_updates_total = %v", n)
		}
	})
}

// TestAppendErrors pins the refusal cases: unknown dataset, a dataset
// that is not a shard set, and a delta stream for the wrong dataset —
// all without mutating anything on disk.
func TestAppendErrors(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, nil)

	if _, err := s.Append("deadbeef", strings.NewReader("x")); err == nil ||
		!strings.Contains(err.Error(), "unknown dataset") {
		t.Fatalf("unknown id: %v", err)
	}

	plain, err := s.Upload(strings.NewReader("not a shard set"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, plain.ID)
	if _, err := s.Append(plain.ID, strings.NewReader("x")); err == nil {
		t.Fatal("append to a plain dataset succeeded")
	}

	ds, manifest := spoolShardSet(t, s)
	info, err := s.Add(manifest)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, info.ID)
	wrong := &trace.Dataset{Name: "other", POIs: ds.POIs}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(info.ID, deltaStream(t, wrong, freshUser(ds))); err == nil ||
		!strings.Contains(err.Error(), "dataset") {
		t.Fatalf("wrong-dataset stream: %v", err)
	}
	if again, _ := os.ReadFile(manifest); !bytes.Equal(raw, again) {
		t.Fatal("failed append mutated the manifest")
	}
}

// TestHTTPAppend drives the append flow over the wire: POST the delta
// stream with ?wait=1, follow the Location to the new dataset, and see
// the incremental-update and cache-tier counters on /metrics.
func TestHTTPAppend(t *testing.T) {
	var calls, updates atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) {
		c.RetainOutcomes = true
		c.Validate = withUpdate(loggingValidate(t, &calls), &updates, fakeUpdate(t))
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	ds, manifest := spoolShardSet(t, s)
	info, err := s.Add(manifest)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, info.ID)

	stream := deltaStream(t, ds, freshUser(ds))
	resp, err := http.Post(ts.URL+"/v1/datasets/"+info.ID+"/append?wait=1",
		"application/octet-stream", stream)
	if err != nil {
		t.Fatal(err)
	}
	var grown JobInfo
	code := resp.StatusCode
	loc := resp.Header.Get("Location")
	decodeBody(t, resp, &grown)
	if code != http.StatusOK || grown.Status != StatusDone {
		t.Fatalf("append: code=%d info=%+v", code, grown)
	}
	if grown.ID == info.ID || loc != "/v1/datasets/"+grown.ID {
		t.Fatalf("append location: id=%s loc=%q", grown.ID, loc)
	}
	if updates.Load() != 1 {
		t.Fatalf("want 1 incremental update, got %d", updates.Load())
	}

	// Appending to an unknown dataset is a 404 on the resolve step.
	resp, err = http.Post(ts.URL+"/v1/datasets/feedface/append", "application/octet-stream",
		strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	code = resp.StatusCode
	decodeBody(t, resp, &envelope)
	if code != http.StatusNotFound || envelope.Error == "" {
		t.Fatalf("unknown append: code=%d body=%+v", code, envelope)
	}

	metrics := string(readBody(t, get(t, ts.URL+"/metrics")))
	for _, want := range []string{
		"geoserve_incremental_updates_total 1",
		"geoserve_cache_memory_hits_total ",
		"geoserve_cache_disk_hits_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}
