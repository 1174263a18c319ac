package serve

// Tests for the instrumented service surface: the Prometheus /metrics
// exposition must keep every counter name and value semantic the old
// hand-printed endpoint had, stay structurally valid under the shared
// linter, and hold together under concurrent upload / validate /
// append / scrape load (run with -race in CI).

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"geosocial/internal/core"
	"geosocial/internal/obs"
)

// scrapeMetrics fetches /metrics through the full handler chain.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp := get(t, ts.URL+"/metrics")
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q, want exposition format 0.0.4", ct)
	}
	return string(body)
}

// sampleValue extracts the value of an unlabeled sample line.
func sampleValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("sample %s has unparseable value %q", name, rest)
		}
		return v
	}
	t.Fatalf("sample %s not found in exposition:\n%s", name, metrics)
	return 0
}

// metric scrapes /metrics through the server's handler and returns
// the value of one unlabeled sample.
func metric(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	return sampleValue(t, rec.Body.String(), name)
}

// TestMetricsBackCompat: every metric name the pre-registry /metrics
// endpoint printed must survive the migration with the same value
// semantics — asserted against the counts the test flow itself
// produces.
func TestMetricsBackCompat(t *testing.T) {
	var calls, updates, users atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) {
		c.RetainOutcomes = true
		validate := withUpdate(loggingValidate(t, &calls), &updates, fakeUpdate(t))
		c.Validate = func(req Request) (*core.StreamResult, error) {
			res, err := validate(req)
			if err == nil {
				users.Add(int64(res.Users))
			}
			return res, err
		}
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Exercise every counter: a validated upload, a duplicate upload
	// (cache hit), a failing upload, and an incremental append.
	info, err := s.Upload(strings.NewReader("back-compat dataset"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, info.ID)
	if _, err := s.Upload(strings.NewReader("back-compat dataset")); err != nil {
		t.Fatal(err)
	}
	// A result fetch reads the cache — the memory-hit counter's source.
	readBody(t, get(t, ts.URL+"/v1/datasets/"+info.ID))
	bad, err := s.Upload(strings.NewReader("FAIL on purpose"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, bad.ID)
	ds, manifest := spoolShardSet(t, s)
	base, err := s.Add(manifest)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, base.ID)
	grown, err := s.Append(base.ID, deltaStream(t, ds, freshUser(ds)))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, grown.ID)

	metrics := scrapeMetrics(t, ts)
	const failures = 1 // the FAIL upload
	exact := map[string]float64{
		"geoserve_datasets_validated_total":  float64(calls.Load() - failures + updates.Load()),
		"geoserve_validate_failures_total":   failures,
		"geoserve_users_validated_total":     float64(users.Load()),
		"geoserve_uploads_total":             3,
		"geoserve_analyses_total":            0,
		"geoserve_incremental_updates_total": 1,
		"geoserve_cache_disk_hits_total":     0, // memory-only cache
		"geoserve_cache_capacity":            64,
		"geoserve_jobs_pending":              0,
		"geoserve_jobs_running":              0,
	}
	for name, want := range exact {
		if got := sampleValue(t, metrics, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Throughput is users over cumulative validation wall time, the
	// same seconds the duration histogram sums.
	wantRate := float64(users.Load()) / sampleValue(t, metrics, "geoserve_validation_duration_seconds_sum")
	if got := sampleValue(t, metrics, "geoserve_users_per_second"); math.Abs(got-wantRate) > 1e-6*wantRate {
		t.Errorf("geoserve_users_per_second = %v, want %v", got, wantRate)
	}
	hits := sampleValue(t, metrics, "geoserve_cache_hits_total")
	if mem := sampleValue(t, metrics, "geoserve_cache_memory_hits_total"); hits == 0 || hits != mem {
		t.Errorf("geoserve_cache_hits_total = %v, memory hits %v: want equal and nonzero", hits, mem)
	}
	if sampleValue(t, metrics, "geoserve_cache_misses_total") == 0 {
		t.Error("geoserve_cache_misses_total = 0: the first lookup of each dataset misses")
	}
	if n := sampleValue(t, metrics, "geoserve_cache_entries"); n < 1 || n > 64 {
		t.Errorf("geoserve_cache_entries = %v, want within [1, 64]", n)
	}
	if up := sampleValue(t, metrics, "geoserve_uptime_seconds"); up <= 0 {
		t.Errorf("geoserve_uptime_seconds = %v, want > 0", up)
	}
}

// TestMetricsExpositionValid: the payload served on /metrics must pass
// the shared exposition linter and carry the new instrument families —
// build info, at least three histograms, and per-route HTTP metrics.
func TestMetricsExpositionValid(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Upload over HTTP so the POST route lands in the request metrics.
	resp, err := http.Post(ts.URL+"/v1/datasets?wait=1", "application/octet-stream",
		strings.NewReader("lint me"))
	if err != nil {
		t.Fatal(err)
	}
	var info JobInfo
	decodeBody(t, resp, &info)
	waitDone(t, s, info.ID)
	// Drive labeled routes: a listing, a result fetch, and a 404.
	readBody(t, get(t, ts.URL+"/v1/datasets"))
	readBody(t, get(t, ts.URL+"/v1/datasets/"+info.ID))
	readBody(t, get(t, ts.URL+"/v1/datasets/nope"))
	readBody(t, get(t, ts.URL+"/no/such/route"))

	metrics := scrapeMetrics(t, ts)
	for _, err := range obs.LintExposition([]byte(metrics)) {
		t.Errorf("exposition lint: %v", err)
	}

	histograms := 0
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "# TYPE ") && strings.HasSuffix(line, " histogram") {
			histograms++
		}
	}
	if histograms < 3 {
		t.Errorf("exposition has %d histogram families, want >= 3:\n%s", histograms, metrics)
	}
	for _, want := range []string{
		`geoserve_build_info{version="`,
		`geoserve_http_requests_total{route="GET /v1/datasets",status="200"} 1`,
		`geoserve_http_requests_total{route="GET /v1/datasets/{id}",status="200"} 1`,
		`geoserve_http_requests_total{route="GET /v1/datasets/{id}",status="404"} 1`,
		`geoserve_http_requests_total{route="unmatched",status="404"} 1`,
		`geoserve_http_requests_total{route="POST /v1/datasets",status="`,
		`geoserve_http_request_duration_seconds_bucket{route="GET /v1/datasets",status="200",le="+Inf"} 1`,
		`geoserve_upload_bytes_bucket{le="1024"} 1`,
		`geoserve_validation_duration_seconds_count 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("exposition missing %q:\n%s", want, metrics)
		}
	}
}

// TestMetricsSharedRegistryAndSpans: a caller-supplied registry and
// span collector surface the server's own stages — cache tiers and
// append-apply — on /metrics as the geoserve_stage_*_total families.
func TestMetricsSharedRegistryAndSpans(t *testing.T) {
	var calls atomic.Int64
	reg := obs.NewRegistry()
	spans := obs.NewCollector()
	s := newTestServer(t, &calls, func(c *Config) {
		c.RetainOutcomes = true
		c.Validate = loggingValidate(t, &calls)
		c.Registry = reg
		c.Spans = spans
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	ds, manifest := spoolShardSet(t, s)
	base, err := s.Add(manifest)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, base.ID)
	grown, err := s.Append(base.ID, deltaStream(t, ds, freshUser(ds)))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, grown.ID)

	metrics := scrapeMetrics(t, ts)
	for _, err := range obs.LintExposition([]byte(metrics)) {
		t.Errorf("exposition lint: %v", err)
	}
	for _, want := range []string{
		`geoserve_stage_ops_total{stage="append-apply",shard="serve"} 1`,
		`geoserve_stage_ops_total{stage="cache-tier",shard="get"}`,
		`geoserve_stage_seconds_total{stage="append-apply",shard="serve"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("exposition missing span family %q:\n%s", want, metrics)
		}
	}
}

// TestMetricsUnderConcurrentLoad hammers the server with parallel
// uploads, appends, result fetches, scrapes and snapshots; afterwards
// the exposition must still lint clean (histograms cumulative and
// consistent) and the counters must account for every operation.
// The -race runs in CI make this the torn-state detector.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, &calls, func(c *Config) {
		c.RetainOutcomes = true
		c.Validate = loggingValidate(t, &calls)
		c.MaxJobs = 4
		c.Spans = obs.NewCollector()
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	ds, manifest := spoolShardSet(t, s)
	base, err := s.Add(manifest)
	if err != nil {
		t.Fatal(err)
	}
	base = waitDone(t, s, base.ID)

	const uploaders, appends, scrapers = 8, 4, 4
	var wg sync.WaitGroup
	for i := 0; i < uploaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, err := s.Upload(strings.NewReader(fmt.Sprintf("load dataset %d", i)))
			if err != nil {
				t.Errorf("upload %d: %v", i, err)
				return
			}
			waitDone(t, s, info.ID)
			readBody(t, get(t, ts.URL+"/v1/datasets/"+info.ID+"?wait=1"))
		}(i)
	}
	appendID := base.ID
	var appendMu sync.Mutex
	for i := 0; i < appends; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Appends serialize on one lineage: each waits the newest
			// generation to completion before handing it to the next
			// (Append requires a done job).
			appendMu.Lock()
			grown, err := s.Append(appendID, deltaStream(t, ds, freshUser(ds)))
			if err == nil {
				grown = waitDone(t, s, grown.ID)
				appendID = grown.ID
			}
			appendMu.Unlock()
			if err != nil {
				t.Errorf("append: %v", err)
			}
		}()
	}
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 10; n++ {
				payload := scrapeMetrics(t, ts)
				for _, err := range obs.LintExposition([]byte(payload)) {
					t.Errorf("mid-load exposition lint: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	metrics := scrapeMetrics(t, ts)
	for _, err := range obs.LintExposition([]byte(metrics)) {
		t.Errorf("final exposition lint: %v", err)
	}
	// Base + per-append validations, all successful, none failed.
	if got := sampleValue(t, metrics, "geoserve_validate_failures_total"); got != 0 {
		t.Errorf("geoserve_validate_failures_total = %v, want 0", got)
	}
	if got := sampleValue(t, metrics, "geoserve_uploads_total"); got != uploaders {
		t.Errorf("geoserve_uploads_total = %v, want %d", got, uploaders)
	}
	if got := sampleValue(t, metrics, "geoserve_upload_bytes_count"); got != uploaders {
		t.Errorf("geoserve_upload_bytes_count = %v, want %d", got, uploaders)
	}
	if got := sampleValue(t, metrics, "geoserve_datasets_validated_total"); got != float64(calls.Load()) {
		t.Errorf("geoserve_datasets_validated_total = %v, want %d validations run", got, calls.Load())
	}
}
