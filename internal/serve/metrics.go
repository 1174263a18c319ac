package serve

// Service instrumentation: every counter the old /metrics endpoint
// printed by hand lives in an obs.Registry now, emitted in Prometheus
// text exposition format. The pre-existing metric names and value
// semantics are preserved exactly (the back-compat test in obs_test.go
// pins every one of them); what the registry adds is HELP/TYPE
// metadata, histograms, per-route HTTP metrics, and — when the server
// is given a span collector — per-stage pipeline timings.

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"geosocial/internal/obs"
)

// serverMetrics owns the server's registered instruments — the one
// view of the service counters. Gauges over live server state (cache
// stats, job queue depths, uptime) are registered as scrape-time
// functions, so /metrics always reads current values.
type serverMetrics struct {
	reg *obs.Registry

	validated *obs.Counter // validations actually run to completion
	failures  *obs.Counter // validations that returned an error
	users     *obs.Counter // users across completed validations
	uploads   *obs.Counter // HTTP uploads accepted
	analyses  *obs.Counter // log-backed analyses actually run
	updates   *obs.Counter // validations satisfied by the incremental path

	// validateNanos sums validation wall time at full Duration
	// precision for the users-per-second gauge; the histogram's
	// float-seconds sum would round it.
	validateNanos atomic.Int64

	validateSeconds *obs.Histogram // per-validation wall time
	validateRate    *obs.Histogram // per-validation users/second
	uploadBytes     *obs.Histogram // accepted upload body sizes

	httpRequests *obs.CounterVec   // {route, status}
	httpSeconds  *obs.HistogramVec // {route, status}
}

// newServerMetrics registers the server's instruments on reg. A
// registry accepts each metric name once, so one Server per Registry;
// when the caller shares no registry the server makes a private one.
// spans, when non-nil, is additionally exported as the
// geoserve_stage_*_total sample families.
func newServerMetrics(reg *obs.Registry, s *Server, spans *obs.Collector) *serverMetrics {
	m := &serverMetrics{reg: reg}

	m.validated = reg.NewCounter("geoserve_datasets_validated_total",
		"Validations run to completion.")
	m.failures = reg.NewCounter("geoserve_validate_failures_total",
		"Validations that returned an error.")
	m.users = reg.NewCounter("geoserve_users_validated_total",
		"Users validated across completed validations.")
	m.uploads = reg.NewCounter("geoserve_uploads_total",
		"Dataset uploads accepted over HTTP.")
	m.analyses = reg.NewCounter("geoserve_analyses_total",
		"Log-backed analyses computed (cache hits excluded).")
	m.updates = reg.NewCounter("geoserve_incremental_updates_total",
		"Appended datasets revalidated incrementally instead of in full.")

	reg.RegisterGaugeFunc("geoserve_users_per_second",
		"Validated users divided by cumulative validation wall time.",
		func() float64 {
			if ns := m.validateNanos.Load(); ns > 0 {
				return float64(m.users.Value()) / (float64(ns) / float64(time.Second))
			}
			return 0
		})

	// Cache-tier and job-queue gauges read live server state at scrape
	// time.
	reg.RegisterCounterFunc("geoserve_cache_hits_total",
		"Result-cache hits across all tiers.",
		func() int64 { mem, disk, _, _, _ := s.cache.Stats(); return mem + disk })
	reg.RegisterCounterFunc("geoserve_cache_memory_hits_total",
		"Result-cache hits answered from the memory LRU.",
		func() int64 { mem, _, _, _, _ := s.cache.Stats(); return mem })
	reg.RegisterCounterFunc("geoserve_cache_disk_hits_total",
		"Result-cache hits promoted from the disk tier.",
		func() int64 { _, disk, _, _, _ := s.cache.Stats(); return disk })
	reg.RegisterCounterFunc("geoserve_cache_misses_total",
		"Result-cache lookups that missed every tier.",
		func() int64 { _, _, miss, _, _ := s.cache.Stats(); return miss })
	reg.RegisterGaugeIntFunc("geoserve_cache_entries",
		"Results currently held in the memory LRU.",
		func() int64 { _, _, _, entries, _ := s.cache.Stats(); return int64(entries) })
	reg.RegisterGaugeIntFunc("geoserve_cache_capacity",
		"Memory LRU capacity in entries.",
		func() int64 { _, _, _, _, capacity := s.cache.Stats(); return int64(capacity) })
	reg.RegisterGaugeIntFunc("geoserve_jobs_pending",
		"Jobs waiting for a validation slot.",
		func() int64 { p, _ := s.jobCounts(); return p })
	reg.RegisterGaugeIntFunc("geoserve_jobs_running",
		"Validations in flight.",
		func() int64 { _, r := s.jobCounts(); return r })
	reg.RegisterGaugeFunc("geoserve_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	reg.RegisterSampleFunc("geoserve_build_info",
		"Build information; the value is always 1.", "gauge",
		func() []obs.Sample {
			return []obs.Sample{{
				Labels: []obs.Label{{Name: "version", Value: obs.Version}},
				Value:  1, Int: true,
			}}
		})

	m.validateSeconds = reg.NewHistogram("geoserve_validation_duration_seconds",
		"Wall time of each completed validation.", obs.DurationBuckets)
	m.validateRate = reg.NewHistogram("geoserve_validation_users_per_second",
		"Throughput of each completed validation.", obs.RateBuckets)
	m.uploadBytes = reg.NewHistogram("geoserve_upload_bytes",
		"Accepted upload body sizes in bytes.", obs.SizeBuckets)

	m.httpRequests = reg.NewCounterVec("geoserve_http_requests_total",
		"HTTP requests by route pattern and status code.", "route", "status")
	m.httpSeconds = reg.NewHistogramVec("geoserve_http_request_duration_seconds",
		"HTTP request latency by route pattern and status code.",
		obs.DurationBuckets, "route", "status")

	if spans != nil {
		reg.RegisterSampleFunc("geoserve_stage_ops_total",
			"Pipeline span operations by stage and shard.", "counter",
			func() []obs.Sample { return spanSamples(spans, false) })
		reg.RegisterSampleFunc("geoserve_stage_seconds_total",
			"Pipeline span wall time by stage and shard, summed across workers.", "counter",
			func() []obs.Sample { return spanSamples(spans, true) })
	}
	return m
}

// spanSamples renders the collector's current cells as labeled samples.
func spanSamples(spans *obs.Collector, seconds bool) []obs.Sample {
	stats := spans.Snapshot()
	out := make([]obs.Sample, 0, len(stats))
	for _, st := range stats {
		sm := obs.Sample{Labels: []obs.Label{
			{Name: "stage", Value: st.Stage},
			{Name: "shard", Value: st.Shard},
		}}
		if seconds {
			sm.Value = st.Elapsed.Seconds()
		} else {
			sm.Value = float64(st.Ops)
			sm.Int = true
		}
		out = append(out, sm)
	}
	return out
}

// jobCounts tallies the job table by lifecycle state.
func (s *Server) jobCounts() (pending, running int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		switch j.info.Status {
		case StatusPending:
			pending++
		case StatusRunning:
			running++
		}
	}
	return pending, running
}

// statusWriter captures the response status for the HTTP metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// observeRequest records one finished HTTP request.
func (m *serverMetrics) observeRequest(route string, status int, elapsed time.Duration) {
	code := strconv.Itoa(status)
	m.httpRequests.With(route, code).Inc()
	m.httpSeconds.With(route, code).Observe(elapsed.Seconds())
}
