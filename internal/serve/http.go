package serve

// HTTP surface of the validation service. Endpoints (full reference
// with curl examples in docs/API.md):
//
//	POST /v1/datasets                 upload a dataset file (?wait=1 blocks)
//	GET  /v1/datasets                 list jobs in arrival order
//	GET  /v1/datasets/{id}            job status + full StreamResult when done
//	POST /v1/datasets/{id}/append     append a GSB1 delta stream to a shard set
//	GET  /v1/datasets/{id}/partition  the Figure 1 partition only
//	GET  /v1/datasets/{id}/taxonomy   the §5.1 taxonomy only
//	GET  /v1/datasets/{id}/outcomes   the raw GSO1 outcome log bytes
//	GET  /v1/datasets/{id}/analysis/{kind}  a §5–§7 analysis over the log
//	GET  /healthz                     liveness probe (JSON status + build version)
//	GET  /metrics                     Prometheus text-exposition metrics
//
// All JSON responses are encoded exactly like geovalidate -json
// (two-space indent), so service output and CLI output on the same
// dataset are byte-comparable. The X-Cache header on result endpoints
// is "hit" when the request was served from the result cache without
// waiting on a validation, "miss" otherwise.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"geosocial/internal/core"
	"geosocial/internal/obs"
)

// maxUploadBytes caps an upload request body (1 GiB, far above any
// study-scale dataset; a sharded corpus should be spooled, not
// uploaded).
const maxUploadBytes = 1 << 30

// initMux wires the HTTP routes. Called once by New.
func (s *Server) initMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", s.handleUpload)
	mux.HandleFunc("GET /v1/datasets", s.handleList)
	mux.HandleFunc("GET /v1/datasets/{id}", s.handleDataset)
	mux.HandleFunc("POST /v1/datasets/{id}/append", s.handleAppend)
	mux.HandleFunc("GET /v1/datasets/{id}/partition", s.handlePartition)
	mux.HandleFunc("GET /v1/datasets/{id}/taxonomy", s.handleTaxonomy)
	mux.HandleFunc("GET /v1/datasets/{id}/outcomes", s.handleOutcomes)
	mux.HandleFunc("GET /v1/datasets/{id}/analysis/{kind}", s.handleAnalysis)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
}

// ServeHTTP implements http.Handler. Every request is timed and
// counted into the per-route HTTP metrics, labeled by the mux pattern
// it matched (never the raw URL, so label cardinality stays bounded by
// the route table).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := "unmatched"
	if _, pattern := s.mux.Handler(r); pattern != "" {
		route = pattern
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	s.mux.ServeHTTP(sw, r)
	s.sm.observeRequest(route, sw.status, time.Since(t0))
}

// writeJSON writes v in the shared presentation encoding
// (core.WriteIndentedJSON — the same call geovalidate -json makes), so
// the two surfaces emit byte-identical documents for equal values.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	core.WriteIndentedJSON(w, v) //nolint:errcheck // nothing to do about a failed write
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeError writes the error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// datasetResponse is the GET /v1/datasets/{id} body: job state plus the
// full result once available.
type datasetResponse struct {
	JobInfo
	// Result is the full validation result; present only when the job
	// is done and its result is cached.
	Result *core.StreamResult `json:"result,omitempty"`
}

// wantWait reports the ?wait=1 request flag.
func wantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// handleUpload accepts a dataset file as the raw request body.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	info, err := s.Upload(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		// Upload failures are server faults (spool I/O) unless the body
		// exceeded the cap or the server is draining.
		status := http.StatusInternalServerError
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			status = http.StatusRequestEntityTooLarge
		case errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	cacheState := "miss"
	if info.Status == StatusDone || info.Status == StatusFailed {
		cacheState = "hit" // no validation ran for this request
	} else if wantWait(r) {
		info, _ = s.wait(info.ID, r.Context().Done())
	}
	w.Header().Set("X-Cache", cacheState)
	w.Header().Set("Location", "/v1/datasets/"+info.ID)
	status := http.StatusAccepted
	if info.Status == StatusDone || info.Status == StatusFailed {
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

// handleList lists every job in arrival order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Datasets []JobInfo `json:"datasets"`
	}{Datasets: s.Jobs()})
}

// loadResult resolves {id} to its job state and decoded result,
// honouring ?wait=1 — including across an eviction-triggered
// revalidation, so a waiting client always leaves with a result (or a
// failure), never a transient 202. ok=false means the response has
// been written.
func (s *Server) loadResult(w http.ResponseWriter, r *http.Request) (info JobInfo, res *core.StreamResult, fromCache bool, ok bool) {
	id := r.PathValue("id")
	info, exists := s.Job(id)
	if !exists {
		writeError(w, http.StatusNotFound, "unknown dataset %q", id)
		return info, nil, false, false
	}
	fromCache = true
	// Bounded retries: each pass either returns, waits for a terminal
	// state, or observes an eviction re-queue (which the next pass
	// waits out). More than a few passes means the cache is thrashing
	// faster than we can read it; give up with the transient state.
	for attempt := 0; attempt < 4; attempt++ {
		if info.Status != StatusDone && info.Status != StatusFailed {
			if !wantWait(r) {
				return info, nil, fromCache, true
			}
			var finished bool
			info, finished = s.wait(id, r.Context().Done())
			fromCache = false // this request waited on a validation
			if !finished {
				if _, exists := s.Job(id); !exists {
					// The job vanished mid-wait: its file was claimed as
					// a shard by a manifest and the standalone dataset
					// withdrawn.
					writeError(w, http.StatusGone, "dataset %q was withdrawn (claimed by a shard manifest)", id)
					return info, nil, fromCache, false
				}
				return info, nil, fromCache, true // cancelled or shutdown
			}
		}
		if info.Status != StatusDone {
			return info, nil, fromCache, true // failed
		}
		var data []byte
		data, info, _ = s.result(id)
		if data == nil {
			// Evicted; result() re-queued a revalidation. A waiting
			// client loops to wait it out, others get the transient
			// state.
			fromCache = false
			if !wantWait(r) {
				return info, nil, false, true
			}
			continue
		}
		res, err := core.DecodeStreamResult(data)
		if err != nil {
			// A corrupt cache entry (torn disk write) must not poison the
			// dataset forever: drop both tiers and loop — the next pass
			// misses the cache and revalidates from the spool, exactly as
			// for an eviction.
			s.cfg.Logger.Printf("serve: %s: dropping corrupt cached result: %v", info.Path, err)
			s.cache.Delete(id)
			fromCache = false
			continue
		}
		return info, res, fromCache, true
	}
	return info, nil, false, true
}

// setCache writes the X-Cache header.
func setCache(w http.ResponseWriter, fromCache bool) {
	state := "miss"
	if fromCache {
		state = "hit"
	}
	w.Header().Set("X-Cache", state)
}

// handleDataset serves job status plus the full result when done.
func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	info, res, fromCache, ok := s.loadResult(w, r)
	if !ok {
		return
	}
	setCache(w, fromCache && res != nil)
	status := http.StatusOK
	if info.Status == StatusPending || info.Status == StatusRunning {
		status = http.StatusAccepted
	}
	writeJSON(w, status, datasetResponse{JobInfo: info, Result: res})
}

// handleAppend grows a validated shard-set dataset by one generation:
// the request body is a GSB1 delta stream (the same wire format an
// upload uses, carrying only the appended data), applied to the
// dataset's manifest on disk. The response is the new generation's job
// — a different dataset ID, since the corpus content changed — which
// validates incrementally from the old generation's result when
// possible. ?wait=1 blocks for the new job's completion.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	info, ok := s.resolveDone(w, r)
	if !ok {
		return
	}
	newInfo, err := s.Append(info.ID, http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		status := http.StatusUnprocessableEntity
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			status = http.StatusRequestEntityTooLarge
		case errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	if wantWait(r) && newInfo.Status != StatusDone && newInfo.Status != StatusFailed {
		newInfo, _ = s.wait(newInfo.ID, r.Context().Done())
	}
	w.Header().Set("Location", "/v1/datasets/"+newInfo.ID)
	status := http.StatusAccepted
	if newInfo.Status == StatusDone || newInfo.Status == StatusFailed {
		status = http.StatusOK
	}
	writeJSON(w, status, newInfo)
}

// handleNotReady reports a job that cannot serve a result yet (or ever,
// for failed jobs).
func handleNotReady(w http.ResponseWriter, info JobInfo) {
	if info.Status == StatusFailed {
		writeError(w, http.StatusUnprocessableEntity, "validation failed: %s", info.Error)
		return
	}
	writeJSON(w, http.StatusAccepted, info)
}

// handlePartition serves only the Figure 1 partition of a validated
// dataset — the endpoint the byte-identity contract is pinned against
// (geoserve partition JSON == geovalidate -json partition field).
func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	info, res, fromCache, ok := s.loadResult(w, r)
	if !ok {
		return
	}
	if res == nil {
		handleNotReady(w, info)
		return
	}
	setCache(w, fromCache)
	writeJSON(w, http.StatusOK, res.Partition)
}

// handleTaxonomy serves only the §5.1 taxonomy counts.
func (s *Server) handleTaxonomy(w http.ResponseWriter, r *http.Request) {
	info, res, fromCache, ok := s.loadResult(w, r)
	if !ok {
		return
	}
	if res == nil {
		handleNotReady(w, info)
		return
	}
	setCache(w, fromCache)
	writeJSON(w, http.StatusOK, res.Taxonomy)
}

// resolveDone resolves {id} to a done job, honouring ?wait=1. ok=false
// means the response has been written (unknown job, failed job, or a
// job that is not done and the client would not wait).
func (s *Server) resolveDone(w http.ResponseWriter, r *http.Request) (JobInfo, bool) {
	id := r.PathValue("id")
	info, exists := s.Job(id)
	if !exists {
		writeError(w, http.StatusNotFound, "unknown dataset %q", id)
		return info, false
	}
	if info.Status != StatusDone && info.Status != StatusFailed && wantWait(r) {
		var finished bool
		if info, finished = s.wait(id, r.Context().Done()); !finished {
			if _, exists := s.Job(id); !exists {
				writeError(w, http.StatusGone, "dataset %q was withdrawn (claimed by a shard manifest)", id)
				return info, false
			}
		}
	}
	if info.Status != StatusDone {
		handleNotReady(w, info)
		return info, false
	}
	return info, true
}

// handleOutcomes serves a validated dataset's raw GSO1 outcome log —
// the exact bytes geovalidate -outcomes would have written, ready for
// a local geoanalyze run.
func (s *Server) handleOutcomes(w http.ResponseWriter, r *http.Request) {
	info, ok := s.resolveDone(w, r)
	if !ok {
		return
	}
	logPath := s.outcomePath(info.ID)
	if logPath == "" {
		writeError(w, http.StatusNotFound, "outcome logging is disabled on this server")
		return
	}
	f, err := os.Open(logPath)
	if err != nil {
		writeError(w, http.StatusNotFound, "no outcome log retained for dataset %q", info.ID)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	if st, err := f.Stat(); err == nil {
		w.Header().Set("Content-Length", fmt.Sprint(st.Size()))
	}
	io.Copy(w, f) //nolint:errcheck // nothing to do about a failed write
}

// handleAnalysis serves one §5–§7 analysis over a validated dataset's
// outcome log. Analysis documents are cached alongside partitions in
// the result cache (and its disk tier), keyed by "<checksum>.<kind>",
// so each (dataset, kind) pair is computed at most once per cache
// lifetime; X-Cache reports whether this request hit that cache.
func (s *Server) handleAnalysis(w http.ResponseWriter, r *http.Request) {
	info, ok := s.resolveDone(w, r)
	if !ok {
		return
	}
	// Configuration errors first: "outcome logging is disabled" is the
	// honest answer for any kind when there are no logs to analyze
	// (with AnalysisKinds empty, every kind would otherwise read as
	// "unknown").
	if s.outcomePath(info.ID) == "" {
		writeError(w, http.StatusNotFound, "outcome logging is disabled on this server")
		return
	}
	kind := r.PathValue("kind")
	known := false
	for _, k := range s.cfg.AnalysisKinds {
		if k == kind {
			known = true
			break
		}
	}
	if !known {
		writeError(w, http.StatusNotFound, "unknown analysis kind %q (have %s)",
			kind, strings.Join(s.cfg.AnalysisKinds, ", "))
		return
	}
	key := info.ID + "." + kind
	fromCache := true
	for {
		if data, hit := s.cacheGet(key); hit {
			if !json.Valid(data) {
				// Torn disk write: drop the entry and recompute instead of
				// serving garbage with a 200.
				s.cfg.Logger.Printf("serve: %s: dropping corrupt cached %s analysis", info.Path, kind)
				s.cache.Delete(key)
				fromCache = false
			} else {
				setCache(w, fromCache)
				w.Header().Set("Content-Type", "application/json")
				w.Write(data) //nolint:errcheck // nothing to do about a failed write
				return
			}
		}
		// Single-flight: exactly one request computes each uncached
		// (dataset, kind); the rest wait for it and re-check the cache.
		s.analysisMu.Lock()
		ch, busy := s.analysisBusy[key]
		if !busy {
			ch = make(chan struct{})
			s.analysisBusy[key] = ch
			s.analysisMu.Unlock()
			break // this request is the runner
		}
		s.analysisMu.Unlock()
		fromCache = false // this request waited on a computation
		select {
		case <-ch:
		case <-r.Context().Done():
			return // client gone; the runner still publishes to the cache
		case <-s.stop:
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
	}
	data, status, err := s.runAnalysis(info, key, kind)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	w.Header().Set("X-Cache", "miss")
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // nothing to do about a failed write
}

// runAnalysis computes one analysis as the single-flight runner,
// publishing to the cache and always releasing waiters (who re-check
// the cache; after a failure the next waiter becomes the runner).
func (s *Server) runAnalysis(info JobInfo, key, kind string) (data []byte, errStatus int, err error) {
	defer func() {
		s.analysisMu.Lock()
		ch := s.analysisBusy[key]
		delete(s.analysisBusy, key)
		s.analysisMu.Unlock()
		close(ch)
	}()
	if s.cfg.Analyze == nil {
		return nil, http.StatusNotImplemented, fmt.Errorf("analysis is not configured on this server")
	}
	logPath := s.outcomePath(info.ID)
	if logPath == "" {
		return nil, http.StatusNotFound, fmt.Errorf("outcome logging is disabled on this server")
	}
	if _, err := os.Stat(logPath); err != nil {
		return nil, http.StatusNotFound, fmt.Errorf("no outcome log retained for dataset %q", info.ID)
	}
	data, aerr := s.cfg.Analyze(logPath, kind)
	if aerr != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("analysis failed: %v", aerr)
	}
	s.sm.analyses.Inc()
	s.cachePut(key, data)
	s.cfg.Logger.Printf("serve: %s: computed %s analysis (%s)", info.Path, kind, shortID(info.ID))
	return data, 0, nil
}

// healthzBody is the liveness response.
type healthzBody struct {
	Status  string `json:"status"`
	Version string `json:"version"`
}

// handleHealthz is the liveness probe; the body carries the build
// version so a probe can also tell what is deployed.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzBody{Status: "ok", Version: obs.Version})
}

// handleMetrics serves the instrument registry in Prometheus text
// exposition format. Every counter name the old hand-printed endpoint
// exposed survives with identical value semantics (pinned by the
// back-compat test); the exposition adds HELP/TYPE metadata,
// histograms, per-route HTTP metrics, and — when a span collector is
// configured — per-stage pipeline timings.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.sm.reg.WritePrometheus(w) //nolint:errcheck // nothing to do about a failed write
}
