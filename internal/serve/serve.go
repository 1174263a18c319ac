// Package serve is the long-running validation service layer: it turns
// the repository's batch validation pipeline into a daemon that ingests
// datasets continuously and serves cached results over HTTP.
//
// A Server watches a spool directory (and accepts HTTP uploads into it)
// for dataset files — JSON, binary GSB1, or shard-set manifests — and
// validates each one through an injected ValidateFunc, which the
// geosocial facade wires to the same streaming engine geovalidate uses
// (geosocial.ValidateFileOpts, or UpdateValidation for an appended
// dataset whose previous generation is at hand).
// Because the service and the CLI share one engine and validation is
// deterministic for any worker count, serving a dataset yields results
// byte-identical to running geovalidate on the same file.
//
// Results are cached in a fixed-capacity LRU keyed by dataset checksum
// (sha256 over the file bytes; for shard sets, over the manifest's
// semantic content plus every shard's bytes), so re-uploading or
// re-spooling identical bytes never revalidates, and repeat fetches are
// served straight from memory. Cached entries are the deterministic
// encoding of core.StreamResult, which keeps cached and freshly
// computed responses byte-comparable.
//
// Concurrency model: every dataset becomes a job; at most
// Config.MaxJobs validations run at once, later jobs queue on a
// semaphore, and Close drains running jobs before returning. The HTTP
// API is documented in docs/API.md and served by Server.ServeHTTP.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"geosocial/internal/checkpoint"
	"geosocial/internal/core"
	"geosocial/internal/obs"
	"geosocial/internal/trace"
)

// ErrClosed is returned by Add and Upload once Close has begun.
var ErrClosed = errors.New("serve: server is closed")

// Request is one validation job handed to the ValidateFunc.
type Request struct {
	// Path is the dataset: a plain file, a shard-set manifest, or a
	// directory holding one.
	Path string
	// OutcomeLog, when non-empty, is where the validation must write a
	// GSO1 outcome log; a validation that cannot must fail.
	OutcomeLog string
	// CheckpointDir, when non-empty, is where the validation should
	// persist per-shard checkpoints and resume from any it finds, so a
	// job interrupted by a crash or restart re-runs only its unfinished
	// shards. Checkpointing is an optimization, never a correctness
	// requirement, so an implementation may ignore it.
	CheckpointDir string
	// Prev, when non-nil, is the result of validating an appended shard
	// set at its previous generation and PrevLog the outcome log that
	// run wrote. The validation may then update Prev incrementally; the
	// result and log must be byte-identical to a full validation of
	// Path.
	Prev    *core.StreamResult
	PrevLog string
}

// ValidateFunc validates one dataset. The geosocial facade supplies the
// canonical implementation (UpdateValidation when Prev is set,
// ValidateFileOpts otherwise); tests may inject fakes. It must be safe
// for concurrent calls.
type ValidateFunc func(Request) (*core.StreamResult, error)

// AnalyzeFunc runs one analysis kind over an outcome log and returns
// the presentation-encoded JSON document to serve and cache. The
// geosocial facade wires it to AnalyzeOutcomes. It must be safe for
// concurrent calls.
type AnalyzeFunc func(logPath, kind string) ([]byte, error)

// Config configures a Server. Validate and SpoolDir are required; zero
// values elsewhere select the documented defaults.
type Config struct {
	// SpoolDir is the watched dataset directory. Uploads are written
	// here too, so a restarted server rediscovers everything it has ever
	// accepted. Created if missing.
	SpoolDir string
	// Validate runs every validation, full or incremental (required;
	// see ValidateFunc and Request).
	Validate ValidateFunc
	// MaxJobs caps concurrent validations; further jobs queue in
	// arrival order. <= 0 selects 2.
	MaxJobs int
	// CacheCapacity is the LRU result-cache size in entries; <= 0
	// selects 64.
	CacheCapacity int
	// NoDiskCache keeps the result cache memory-only (evicted results
	// then revalidate from the spool). By default every result (and
	// analysis document) is also persisted under "cache" in the spool,
	// content-addressed by checksum and lazily reloaded after a
	// restart, so identical bytes are never revalidated across server
	// lifetimes.
	NoDiskCache bool
	// ParamsTag fingerprints the validation configuration. The
	// persisted tiers (disk cache, outcome logs) are namespaced by it,
	// so a server restarted with different validation parameters never
	// serves results computed under the old ones — dataset bytes alone
	// do not determine a result; the parameters do too. The facade
	// derives it from the resolved matching and visit-detection
	// parameters. Empty uses the un-namespaced directories.
	ParamsTag string
	// MaxDiskCacheEntries caps the disk cache tier in files; the oldest
	// entries are pruned as new ones are written. <= 0 means unbounded.
	// A pruned result transparently revalidates from the spool on next
	// request, exactly as for a memory eviction.
	MaxDiskCacheEntries int
	// RetainOutcomes makes every validation write a GSO1 outcome log
	// under "outcomes" in the spool, content-addressed by dataset
	// checksum — the input of the outcomes and analysis endpoints.
	RetainOutcomes bool
	// MaxOutcomeLogs caps retained outcome logs in files, pruned oldest
	// first. <= 0 means unbounded. The outcomes/analysis endpoints
	// answer 404 for a pruned log; re-adding or re-uploading the
	// dataset revalidates it and regenerates the log (a cached result
	// alone never short-circuits that regeneration).
	MaxOutcomeLogs int
	// RetainCheckpoints gives every validation a per-dataset checkpoint
	// directory under "checkpoints" in the spool (namespaced by
	// ParamsTag like the other persisted tiers). A validation
	// interrupted by a crash or server restart then resumes from its
	// completed shards instead of starting over. The directory of a
	// successfully completed job is removed — checkpoints only outlive
	// failed or interrupted runs.
	RetainCheckpoints bool
	// MaxCheckpointRuns caps retained per-dataset checkpoint run
	// directories, pruned oldest first after a failed validation.
	// <= 0 means unbounded. Pruning costs only the pruned run's partial
	// progress.
	MaxCheckpointRuns int
	// Analyze runs one log-backed analysis (required for the analysis
	// endpoints; they answer 501 without it).
	Analyze AnalyzeFunc
	// AnalysisKinds are the kinds the analysis endpoint accepts
	// (unlisted kinds answer 404). The facade passes
	// geosocial.AnalysisKinds.
	AnalysisKinds []string
	// PollInterval is the spool scan period. 0 selects 2s; < 0 disables
	// the watcher entirely (uploads still work).
	PollInterval time.Duration
	// Logger, when non-nil, receives one info line per lifecycle event
	// (discovered, validated, failed, cache hit). A nil logger stays
	// silent.
	Logger *obs.Logger
	// Registry, when non-nil, receives every geoserve_* instrument and
	// backs the /metrics exposition. Each Server registers its metric
	// names once, so a Registry serves at most one Server; nil makes a
	// private registry.
	Registry *obs.Registry
	// Spans, when non-nil, collects the server's own cache-tier and
	// append-apply span timings and is exported on /metrics as the
	// geoserve_stage_ops_total / geoserve_stage_seconds_total families.
	// The facade shares one collector between this and the validation
	// pipeline, so pipeline stages appear on /metrics too.
	Spans *obs.Collector
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states, in order. A job moves pending → running →
// done | failed; a done job whose cached result was evicted moves back
// to pending when its result is next requested.
const (
	StatusPending Status = "pending"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// JobInfo is the externally visible state of one dataset job, as served
// by the HTTP API.
type JobInfo struct {
	// ID is the dataset checksum (hex sha256) — the cache key and the
	// {id} of every per-dataset endpoint.
	ID string `json:"id"`
	// Path is the dataset's spool path, relative to the spool directory
	// when it lives inside it.
	Path string `json:"path"`
	// Status is the job's lifecycle state.
	Status Status `json:"status"`
	// Error holds the validation failure message when Status is failed.
	Error string `json:"error,omitempty"`
	// Cached reports that the job completed without running a
	// validation, because an identical dataset had already been
	// validated and its result was still cached.
	Cached bool `json:"cached"`
	// Users is the validated user count (done jobs only).
	Users int `json:"users,omitempty"`
	// ElapsedMS is the wall-clock validation time in milliseconds (done
	// and failed jobs that actually ran; 0 for cache-satisfied jobs).
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
}

// job is the internal mutable job record. All fields are guarded by
// Server.mu; done is closed exactly once per pending→terminal
// transition (a fresh channel is made if an evicted job is re-queued).
type job struct {
	info JobInfo
	done chan struct{}
	// appendFrom, when non-empty, is the dataset ID this job's manifest
	// was appended from: runJob then hands that job's cached result and
	// outcome log to the validation as Request.Prev/PrevLog.
	appendFrom string
}

// Server is the validation service. Construct with New, expose with
// ServeHTTP (it implements http.Handler), and stop with Close.
type Server struct {
	cfg            Config
	outcomesDir    string // "" when outcome retention is off
	checkpointsDir string // "" when checkpoint retention is off
	poll           time.Duration
	mux            *http.ServeMux

	mu         sync.Mutex
	jobs       map[string]*job   // checksum -> job
	order      []string          // job IDs in arrival order, for listing
	byPath     map[string]string // dataset path -> checksum
	shardFiles map[string]bool   // spool paths claimed as shards by a manifest
	closed     bool

	// appendLocks serializes appends per manifest path: two concurrent
	// appends to one shard set would otherwise both build generation
	// N+1 — racing on the delta shard file and the manifest, with the
	// last manifest write silently discarding the other acknowledged
	// append's data. One mutex per path, created on first use and never
	// removed (the map is bounded by the distinct shard sets appended
	// to over the server's life).
	appendLocks struct {
		sync.Mutex
		m map[string]*sync.Mutex
	}

	// analysisBusy single-flights analysis computations per cache key:
	// concurrent requests for the same uncached (dataset, kind) wait on
	// the first runner's channel instead of burning N× CPU.
	analysisMu   sync.Mutex
	analysisBusy map[string]chan struct{}

	// outcomeLogs approximates the retained-log count so the O(entries)
	// prune walk runs only when MaxOutcomeLogs is actually exceeded.
	outcomeLogs struct {
		sync.Mutex
		count int
	}

	cache *resultCache
	sem   chan struct{} // MaxJobs tickets
	stop  chan struct{}
	wg    sync.WaitGroup
	start time.Time

	// sm holds the registered service instruments (see metrics.go).
	sm *serverMetrics

	// Span cells for the server's own stages (nil without Config.Spans;
	// a nil cell is a no-op). Cache cells are keyed by operation in the
	// shard dimension so /metrics attributes cache traffic per call
	// kind.
	spanCacheGet  *obs.Cell
	spanCachePut  *obs.Cell
	spanCachePeek *obs.Cell
	spanAppend    *obs.Cell
}

// New validates the configuration, creates the spool directory, and
// starts the spool watcher (unless disabled). The caller owns binding
// the returned Server to an HTTP listener and must Close it when done.
func New(cfg Config) (*Server, error) {
	if cfg.Validate == nil {
		return nil, fmt.Errorf("serve: Config.Validate is required")
	}
	if cfg.SpoolDir == "" {
		return nil, fmt.Errorf("serve: Config.SpoolDir is required")
	}
	if err := os.MkdirAll(cfg.SpoolDir, 0o777); err != nil {
		return nil, fmt.Errorf("serve: create spool: %w", err)
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 2
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 64
	}
	cacheDir := ""
	if !cfg.NoDiskCache {
		cacheDir = filepath.Join(cfg.SpoolDir, "cache")
		if cfg.ParamsTag != "" {
			cacheDir = filepath.Join(cacheDir, cfg.ParamsTag)
		}
	}
	cache, err := newResultCache(cfg.CacheCapacity, cacheDir)
	if err != nil {
		return nil, fmt.Errorf("serve: create cache dir: %w", err)
	}
	cache.maxDiskEntries = cfg.MaxDiskCacheEntries
	outcomesDir := ""
	if cfg.RetainOutcomes {
		outcomesDir = filepath.Join(cfg.SpoolDir, "outcomes")
		if cfg.ParamsTag != "" {
			outcomesDir = filepath.Join(outcomesDir, cfg.ParamsTag)
		}
		if err := os.MkdirAll(outcomesDir, 0o777); err != nil {
			return nil, fmt.Errorf("serve: create outcomes dir: %w", err)
		}
	}
	checkpointsDir := ""
	if cfg.RetainCheckpoints {
		checkpointsDir = filepath.Join(cfg.SpoolDir, "checkpoints")
		if cfg.ParamsTag != "" {
			checkpointsDir = filepath.Join(checkpointsDir, cfg.ParamsTag)
		}
		if err := os.MkdirAll(checkpointsDir, 0o777); err != nil {
			return nil, fmt.Errorf("serve: create checkpoints dir: %w", err)
		}
	}
	logCount := countFiles(outcomesDir, ".gso")
	s := &Server{
		cfg:            cfg,
		outcomesDir:    outcomesDir,
		checkpointsDir: checkpointsDir,
		poll:           cfg.PollInterval,
		jobs:           make(map[string]*job),
		byPath:         make(map[string]string),
		shardFiles:     make(map[string]bool),
		analysisBusy:   make(map[string]chan struct{}),
		cache:          cache,
		sem:            make(chan struct{}, cfg.MaxJobs),
		stop:           make(chan struct{}),
		start:          time.Now(),
	}
	s.outcomeLogs.count = logCount
	if s.poll == 0 {
		s.poll = 2 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.sm = newServerMetrics(reg, s, cfg.Spans)
	s.spanCacheGet = cfg.Spans.Stage("cache-tier", "get")
	s.spanCachePut = cfg.Spans.Stage("cache-tier", "put")
	s.spanCachePeek = cfg.Spans.Stage("cache-tier", "peek")
	s.spanAppend = cfg.Spans.Stage("append-apply", "serve")
	s.initMux()
	if s.poll > 0 {
		s.wg.Add(1)
		go s.watch()
	}
	return s, nil
}

// Close stops the spool watcher, waits for running validations to
// finish, and leaves queued jobs pending. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	return nil
}

// DatasetChecksum fingerprints a dataset on disk: hex sha256 over the
// file bytes for a plain dataset file; for a shard-set manifest (or a
// directory holding one) over the manifest's semantic content — dataset
// name and POI-table checksum — followed by every shard's bytes in
// manifest order. Two corpora with identical content hash identically
// even if their manifest JSON is formatted differently. The checksum is
// the service's dataset ID and cache key.
func DatasetChecksum(path string) (string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return "", fmt.Errorf("serve: checksum: %w", err)
	}
	if !info.IsDir() && !strings.HasSuffix(path, trace.ManifestSuffix) {
		return fileChecksum(path)
	}
	ss, err := trace.OpenShardSet(path)
	if err != nil {
		return "", fmt.Errorf("serve: checksum: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "gsb1-shards\x00%s\x00%s\x00", ss.Manifest.Name, ss.Manifest.POIChecksum)
	for _, sh := range ss.Manifest.Shards {
		f, err := os.Open(filepath.Join(ss.Dir, sh.File))
		if err != nil {
			return "", fmt.Errorf("serve: checksum: %w", err)
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("serve: checksum shard %s: %w", sh.File, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fileChecksum is hex sha256 over one file's bytes.
func fileChecksum(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("serve: checksum: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("serve: checksum %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Add registers a dataset path (plain file, manifest, or directory
// holding one) and returns its job state. Adding a path whose checksum
// matches an already-cached result completes instantly without a
// validation; adding a path already registered returns the current
// state. Validation runs asynchronously — poll Job or wait on the HTTP
// API.
func (s *Server) Add(path string) (JobInfo, error) {
	sum, err := DatasetChecksum(path)
	if err != nil {
		return JobInfo{}, err
	}
	return s.register(path, sum, "")
}

// Append applies a GSB1 delta stream to a completed shard-set dataset:
// the stream becomes the manifest's next generation on disk (a new
// delta shard; the base shards are untouched), and the grown corpus is
// registered as a new job under its new checksum. The new job carries
// the old dataset's ID, so its validation can run incrementally when
// the old result and outcome log are still available; the old job
// keeps serving the superseded generation's (cached) result. Nothing on
// disk changes when the append fails.
func (s *Server) Append(id string, r io.Reader) (JobInfo, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobInfo{}, ErrClosed
	}
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobInfo{}, fmt.Errorf("serve: append: unknown dataset %q", id)
	}
	if j.info.Status != StatusDone {
		status := j.info.Status
		s.mu.Unlock()
		return JobInfo{}, fmt.Errorf("serve: append: dataset %q is %s, not done", id, status)
	}
	path := s.pathForLocked(id)
	s.mu.Unlock()
	if path == "" {
		return JobInfo{}, fmt.Errorf("serve: append: no spool copy of dataset %q remains", id)
	}
	// Serialize with every other append to the same shard set, held
	// through DatasetChecksum and register so the checksum bound to the
	// new job is computed from exactly the generation this append
	// produced. A concurrent append that waited here opens the manifest
	// at the generation the winner published and lands as the one
	// after it — both appends' data survives, in sequence.
	lock := s.appendLock(path)
	lock.Lock()
	defer lock.Unlock()
	t0 := s.spanAppend.Start()
	aw, err := trace.OpenAppend(path)
	if err != nil {
		return JobInfo{}, fmt.Errorf("serve: append: %w", err)
	}
	if err := aw.AppendStream(r); err != nil {
		return JobInfo{}, fmt.Errorf("serve: append: %w", err)
	}
	if err := aw.Close(); err != nil {
		return JobInfo{}, fmt.Errorf("serve: append: %w", err)
	}
	sum, err := DatasetChecksum(path)
	s.spanAppend.Stop(t0, 1)
	if err != nil {
		return JobInfo{}, err
	}
	s.cfg.Logger.Printf("serve: %s: appended generation %d (%s -> %s)",
		s.displayPath(path), aw.Generation(), shortID(id), shortID(sum))
	return s.register(path, sum, id)
}

// appendLock returns the mutex serializing appends to one manifest
// path, creating it on first use.
func (s *Server) appendLock(path string) *sync.Mutex {
	s.appendLocks.Lock()
	defer s.appendLocks.Unlock()
	if s.appendLocks.m == nil {
		s.appendLocks.m = make(map[string]*sync.Mutex)
	}
	mu, ok := s.appendLocks.m[path]
	if !ok {
		mu = new(sync.Mutex)
		s.appendLocks.m[path] = mu
	}
	return mu
}

// displayPath returns path relative to the spool directory when it
// lives inside it, so API responses don't leak server-local prefixes.
func (s *Server) displayPath(path string) string {
	if rel, err := filepath.Rel(s.cfg.SpoolDir, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

// register binds path to the job for checksum sum, creating and
// enqueueing the job if it does not exist. A checksum whose result is
// still cached completes instantly (a cache hit). appendFrom, when
// non-empty, marks a freshly created job as appended from that dataset
// ID (see job.appendFrom); it never overwrites an existing job's
// provenance.
func (s *Server) register(path, sum, appendFrom string) (JobInfo, error) {
	// When outcome retention is on, a missing log disqualifies every
	// shortcut below: the cached result alone cannot serve the outcomes
	// and analysis endpoints, so a re-add of the dataset revalidates to
	// regenerate the log (the documented recovery from log pruning).
	logMissing := false
	if p := s.outcomePath(sum); p != "" {
		if _, err := os.Stat(p); err != nil {
			logMissing = true
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobInfo{}, ErrClosed
	}
	s.byPath[path] = sum
	if j, ok := s.jobs[sum]; ok {
		defer s.mu.Unlock()
		// A failed job is not a permanent verdict on the checksum:
		// failures can be transient (I/O, a file caught mid-copy), so an
		// explicit re-add or re-upload of the same bytes retries. A done
		// job whose outcome log was pruned revalidates the same way.
		if j.info.Status == StatusFailed || (j.info.Status == StatusDone && logMissing) {
			reason := "retrying failed validation"
			if j.info.Status == StatusDone {
				reason = "outcome log pruned, revalidating"
			}
			j.info.Status = StatusPending
			j.info.Error = ""
			j.info.Cached = false
			j.info.ElapsedMS = 0
			j.done = make(chan struct{})
			s.cfg.Logger.Printf("serve: %s: %s (%s)", j.info.Path, reason, shortID(sum))
			s.enqueueLocked(j, path)
		}
		return j.info, nil
	}
	s.mu.Unlock()

	// The cache lookup may touch the disk tier, so it runs outside s.mu
	// (a slow disk must not stall every handler behind this register).
	data, hit := s.cacheGet(sum)
	if logMissing {
		hit = false // a result without its outcome log is not complete
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobInfo{}, ErrClosed
	}
	if j, ok := s.jobs[sum]; ok {
		// Another register won the race while the lock was dropped; its
		// freshly created job is authoritative.
		return j.info, nil
	}
	j := &job{
		info:       JobInfo{ID: sum, Path: s.displayPath(path), Status: StatusPending},
		done:       make(chan struct{}),
		appendFrom: appendFrom,
	}
	s.jobs[sum] = j
	s.order = append(s.order, sum)
	if hit {
		// An identical dataset was validated earlier (under another
		// path, or in a previous server life): serve its cached result,
		// skip the recomputation.
		j.info.Status = StatusDone
		j.info.Cached = true
		if res, err := core.DecodeStreamResult(data); err == nil {
			j.info.Users = res.Users
		}
		close(j.done)
		s.cfg.Logger.Printf("serve: %s: cache hit (%s)", j.info.Path, shortID(sum))
		return j.info, nil
	}
	s.cfg.Logger.Printf("serve: %s: queued (%s)", j.info.Path, shortID(sum))
	s.enqueueLocked(j, path)
	return j.info, nil
}

// cacheGet / cachePut / cachePeek wrap the result cache so the
// cache-tier span (when a collector is configured) attributes time and
// traffic per operation. A nil cell costs nothing — not even a clock
// read.
func (s *Server) cacheGet(key string) ([]byte, bool) {
	t0 := s.spanCacheGet.Start()
	data, hit := s.cache.Get(key)
	s.spanCacheGet.Stop(t0, 1)
	return data, hit
}

func (s *Server) cachePut(key string, data []byte) {
	t0 := s.spanCachePut.Start()
	s.cache.Put(key, data)
	s.spanCachePut.Stop(t0, 1)
}

func (s *Server) cachePeek(key string) ([]byte, bool) {
	t0 := s.spanCachePeek.Start()
	data, hit := s.cache.Peek(key)
	s.spanCachePeek.Stop(t0, 1)
	return data, hit
}

// shortID abbreviates a checksum for log lines.
func shortID(sum string) string {
	if len(sum) > 12 {
		return sum[:12]
	}
	return sum
}

// enqueueLocked starts the job's validation goroutine. Caller holds
// s.mu; the job must be pending with an open done channel.
func (s *Server) enqueueLocked(j *job, path string) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-s.stop:
			return // shutdown: leave the job pending
		}
		// A slot freed by a draining job can be won after Close has
		// begun; re-check so shutdown never starts new validations.
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		s.runJob(j, path)
	}()
}

// runJob executes one validation — incrementally for an appended
// dataset whose previous generation's result and outcome log are still
// at hand, in full otherwise — and publishes the result to the cache
// and the job record.
func (s *Server) runJob(j *job, path string) {
	s.mu.Lock()
	j.info.Status = StatusRunning
	appendFrom := j.appendFrom
	s.mu.Unlock()

	t0 := time.Now()
	ckDir := s.checkpointPath(j.info.ID)
	req := Request{Path: path, OutcomeLog: s.outcomePath(j.info.ID), CheckpointDir: ckDir}
	if appendFrom != "" {
		req.Prev, req.PrevLog = s.previousRun(appendFrom)
	}
	res, err := s.cfg.Validate(req)
	updated := req.Prev != nil && err == nil
	if err != nil && req.Prev != nil {
		// An incremental failure is not a verdict on the dataset (the
		// previous log may be stale or torn); the full path decides.
		s.cfg.Logger.Printf("serve: %s: incremental update failed (%v), revalidating in full", j.info.Path, err)
		req.Prev, req.PrevLog = nil, ""
		res, err = s.cfg.Validate(req)
	}
	elapsed := time.Since(t0)

	if ckDir != "" {
		if err == nil {
			// The run completed; its fragments have nothing left to
			// resume and would only hold disk until pruned.
			os.RemoveAll(ckDir)
		} else if s.cfg.MaxCheckpointRuns > 0 {
			// The run's progress stays for the retry, but the tier as a
			// whole is bounded: oldest interrupted runs go first.
			pruneOldest(s.checkpointsDir, s.cfg.MaxCheckpointRuns, os.DirEntry.IsDir)
		}
	}

	var encoded []byte
	if err == nil {
		encoded, err = res.Encode()
	}

	if err != nil {
		s.sm.failures.Inc()
	} else {
		s.sm.validated.Inc()
		s.sm.users.Add(int64(res.Users))
		s.sm.validateNanos.Add(int64(elapsed))
		s.sm.validateSeconds.Observe(elapsed.Seconds())
		if secs := elapsed.Seconds(); secs > 0 {
			s.sm.validateRate.Observe(float64(res.Users) / secs)
		}
		if updated {
			s.sm.updates.Inc()
		}
	}

	if err == nil {
		// Publish to the cache (which may write the disk tier) before
		// taking s.mu: by the time the job flips to done, the result is
		// fetchable, and the file write never blocks other handlers.
		s.cachePut(j.info.ID, encoded)
		if s.outcomesDir != "" {
			s.outcomeLogs.Lock()
			s.outcomeLogs.count++
			prune := s.cfg.MaxOutcomeLogs > 0 && s.outcomeLogs.count > s.cfg.MaxOutcomeLogs
			s.outcomeLogs.Unlock()
			if prune {
				n := pruneOldest(s.outcomesDir, s.cfg.MaxOutcomeLogs, fileWithSuffix(".gso"))
				s.outcomeLogs.Lock()
				s.outcomeLogs.count = n
				s.outcomeLogs.Unlock()
			}
		}
	}

	s.mu.Lock()
	j.info.ElapsedMS = elapsed.Milliseconds()
	if err != nil {
		j.info.Status = StatusFailed
		j.info.Error = err.Error()
		s.cfg.Logger.Printf("serve: %s: failed after %v: %v", j.info.Path, elapsed.Round(time.Millisecond), err)
	} else {
		j.info.Status = StatusDone
		j.info.Users = res.Users
		s.cfg.Logger.Printf("serve: %s: validated %d users in %v (%s)",
			j.info.Path, res.Users, elapsed.Round(time.Millisecond), shortID(j.info.ID))
	}
	close(j.done)
	s.mu.Unlock()
}

// previousRun fetches the decoded result and retained outcome log of a
// completed dataset job — the inputs of an incremental update. prev is
// nil when either is gone (evicted and pruned, or retention is off);
// the job then validates in full.
func (s *Server) previousRun(id string) (prev *core.StreamResult, prevLog string) {
	prevLog = s.outcomePath(id)
	if prevLog == "" {
		return nil, ""
	}
	if _, err := os.Stat(prevLog); err != nil {
		return nil, ""
	}
	// Peek, not Get: this lookup is the server talking to itself, so it
	// must not inflate the client-facing hit counters or reorder the
	// LRU.
	data, hit := s.cachePeek(id)
	if !hit {
		return nil, ""
	}
	prev, err := core.DecodeStreamResult(data)
	if err != nil {
		return nil, ""
	}
	return prev, prevLog
}

// outcomePath is the content-addressed outcome-log location for a
// dataset checksum, or "" when outcome retention is off. Because the
// name is the checksum, a job satisfied from the result cache still
// finds the log a previous validation of the same bytes wrote.
func (s *Server) outcomePath(id string) string {
	if s.outcomesDir == "" {
		return ""
	}
	return filepath.Join(s.outcomesDir, id+".gso")
}

// checkpointPath is the per-dataset checkpoint run directory for a
// dataset checksum, or "" when checkpoint retention is off. Keyed by
// the dataset checksum, so a retried job resumes exactly its own run.
func (s *Server) checkpointPath(id string) string {
	if s.checkpointsDir == "" {
		return ""
	}
	return filepath.Join(s.checkpointsDir, id)
}

// Job returns the current state of a dataset job by ID.
func (s *Server) Job(id string) (JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return j.info, true
}

// Jobs returns every job in arrival order.
func (s *Server) Jobs() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobInfo, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].info)
	}
	return out
}

// result returns the cached encoded result for a done job. When the
// job is done but its result has been evicted, it re-queues the
// validation (the spool still holds the bytes) and reports not-ready.
func (s *Server) result(id string) (data []byte, info JobInfo, ok bool) {
	s.mu.Lock()
	j, exists := s.jobs[id]
	if !exists {
		s.mu.Unlock()
		return nil, JobInfo{}, false
	}
	info = j.info
	if j.info.Status != StatusDone {
		s.mu.Unlock()
		return nil, info, true
	}
	s.mu.Unlock()

	// The cache lookup may read the disk tier; never under s.mu.
	if data, ok = s.cacheGet(id); ok {
		return data, info, true
	}

	s.mu.Lock()
	// Re-resolve: the job may have changed while the lock was dropped
	// (withdrawn by a manifest claim, or already re-queued by a
	// concurrent reader that observed the same miss).
	j, exists = s.jobs[id]
	if !exists {
		s.mu.Unlock()
		return nil, JobInfo{}, false
	}
	info = j.info
	if j.info.Status != StatusDone {
		s.mu.Unlock()
		return nil, info, true
	}
	// Evicted: revalidate from the spool.
	if s.closed {
		s.mu.Unlock()
		return nil, info, true // shutdown: transient, no state change
	}
	path := s.pathForLocked(id)
	if path == "" {
		// No spool copy survives to recompute from: the result is gone
		// for good. Flip to failed (retryable by re-adding the bytes)
		// instead of reporting "done" with no result forever.
		j.info.Status = StatusFailed
		j.info.Error = "cached result evicted and no spool copy remains"
		info = j.info
		s.cfg.Logger.Printf("serve: %s: %s", j.info.Path, j.info.Error)
		s.mu.Unlock()
		return nil, info, true
	}
	j.info.Status = StatusPending
	j.info.Cached = false
	j.info.Users = 0
	j.info.ElapsedMS = 0
	j.done = make(chan struct{})
	info = j.info
	s.cfg.Logger.Printf("serve: %s: result evicted, revalidating", j.info.Path)
	s.enqueueLocked(j, path)
	s.mu.Unlock()
	return nil, info, true
}

// pathForLocked finds a registered path for a checksum that still
// exists on disk (caller holds s.mu) — a revalidation must not be sent
// to a path the operator has since deleted while the same bytes remain
// under another name. The lowest surviving path in sort order wins, for
// determinism when several spool files share content.
func (s *Server) pathForLocked(id string) string {
	var paths []string
	for p, sum := range s.byPath {
		if sum == id {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return ""
}

// wait blocks until the job reaches a terminal state, the request
// context is cancelled, or the server stops. It returns the job's
// latest state and whether a terminal state was reached.
func (s *Server) wait(id string, cancel <-chan struct{}) (JobInfo, bool) {
	for {
		s.mu.Lock()
		j, ok := s.jobs[id]
		if !ok {
			s.mu.Unlock()
			return JobInfo{}, false
		}
		info := j.info
		done := j.done
		s.mu.Unlock()
		switch info.Status {
		case StatusDone, StatusFailed:
			return info, true
		}
		select {
		case <-done:
		case <-cancel:
			return info, false
		case <-s.stop:
			return info, false
		}
	}
}

// Upload streams a dataset into the spool directory, computing its
// checksum on the way in, and registers it like a spooled file. The
// stored file is named by the full checksum, so uploads are
// content-addressed: re-uploading identical bytes lands on the same
// file and the same job (and retries it if the previous attempt
// failed), never a duplicate validation of cached content.
func (s *Server) Upload(r io.Reader) (JobInfo, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobInfo{}, ErrClosed
	}
	s.mu.Unlock()

	tmp, err := os.CreateTemp(s.cfg.SpoolDir, ".upload-*")
	if err != nil {
		return JobInfo{}, fmt.Errorf("serve: upload: %w", err)
	}
	tmpPath := tmp.Name()
	h := sha256.New()
	size, err := io.Copy(io.MultiWriter(tmp, h), r)
	// The spool file is the upload's only durable copy, so its bytes
	// must reach the disk before the rename can publish the name: a
	// crash after an unsynced rename could leave the name pointing at
	// lost content.
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return JobInfo{}, fmt.Errorf("serve: upload: %w", err)
	}
	sum := hex.EncodeToString(h.Sum(nil))

	s.sm.uploads.Inc()
	s.sm.uploadBytes.Observe(float64(size))

	// The full checksum names the file, so renaming over an existing
	// upload can only replace identical bytes. Whether the name already
	// existed decides cleanup ownership below: a freshly staged file is
	// this call's to remove on failure, an established spool file is not.
	final := filepath.Join(s.cfg.SpoolDir, "upload-"+sum+".dataset")
	_, statErr := os.Stat(final)
	preexisted := statErr == nil
	if err := os.Rename(tmpPath, final); err != nil {
		os.Remove(tmpPath)
		return JobInfo{}, fmt.Errorf("serve: upload: %w", err)
	}
	if err := checkpoint.SyncDir(s.cfg.SpoolDir); err != nil {
		if !preexisted {
			os.Remove(final)
		}
		return JobInfo{}, fmt.Errorf("serve: upload: %w", err)
	}
	info, err := s.register(final, sum, "")
	if err != nil && !preexisted {
		// register refused the file (the server is closing). Left in
		// place it would be a stranded upload no job ever references,
		// silently ingested as a surprise dataset on the next start.
		os.Remove(final)
	}
	return info, err
}

// --- spool watcher ---

// datasetSuffixes are the spool file endings the watcher considers
// datasets. ".dataset" is the neutral suffix Upload stores under (the
// codec sniffs the real encoding from magic bytes, never the name).
var datasetSuffixes = []string{
	".json", ".json.gz", ".bin", ".bin.gz", ".dataset", trace.ManifestSuffix,
}

// spoolCandidate reports whether a spool file name looks like a
// dataset. Temporary files (upload staging, atomic-save temps) are
// excluded.
func spoolCandidate(name string) bool {
	if strings.HasPrefix(name, ".") || strings.Contains(name, ".tmp-") {
		return false
	}
	for _, suf := range datasetSuffixes {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}

// scanState is the watcher's stability memory: a file is only ingested
// once its size and mtime are unchanged across two consecutive scans,
// so a dataset still being copied into the spool is never read early.
type scanState struct {
	size  int64
	mtime time.Time
}

// spoolMemory is the watcher's per-path state across scans.
type spoolMemory struct {
	// prev is each path's last observed size/mtime (stability check).
	prev map[string]scanState
	// ingested is the state a path had when it was last handed to Add
	// (successfully or not): a path at its ingested state is settled —
	// neither revalidated nor re-checksummed — until it is rewritten.
	ingested map[string]scanState
	// manifests memoizes each manifest's parse, keyed by path, so a
	// settled manifest is not re-read and re-parsed on every tick.
	manifests map[string]manifestMemo
}

// manifestMemo is one manifest's cached parse: the file state it was
// parsed at and the shard paths it claims (nil when the document was
// malformed — rewriting the file re-parses).
type manifestMemo struct {
	state  scanState
	shards []string
}

// watch polls the spool directory until Close.
func (s *Server) watch() {
	defer s.wg.Done()
	mem := &spoolMemory{
		prev:      make(map[string]scanState),
		ingested:  make(map[string]scanState),
		manifests: make(map[string]manifestMemo),
	}
	t := time.NewTicker(s.poll)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.scanSpool(mem)
		}
	}
}

// scanSpool performs one watcher pass: refresh the shard-exclusion set
// from every manifest present, then hand stable unclaimed dataset files
// to Add. Manifests are registered as a whole — their shards are
// validated through them, never individually — and a file rewritten in
// place is re-ingested once it is stable again (its new checksum maps
// to a new job; the old job's history remains listed).
func (s *Server) scanSpool(mem *spoolMemory) {
	entries, err := os.ReadDir(s.cfg.SpoolDir)
	if err != nil {
		s.cfg.Logger.Printf("serve: spool scan: %v", err)
		return
	}

	// Pass 1: manifests claim their shard files. A shard that was
	// ingested standalone before its manifest appeared (shards are
	// published first, the manifest last) is un-registered here, so the
	// set converges to one job per corpus. Claims are rebuilt from the
	// manifests present each scan — deleting a manifest releases its
	// shards, so a kept shard file can later be ingested standalone —
	// and parses are memoized by file state, so settled manifests cost
	// one Stat per tick, not a read + parse.
	claimed := make(map[string]bool)
	seenManifests := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), trace.ManifestSuffix) {
			continue
		}
		path := filepath.Join(s.cfg.SpoolDir, e.Name())
		seenManifests[path] = true
		info, err := e.Info()
		if err != nil {
			continue
		}
		st := scanState{size: info.Size(), mtime: info.ModTime()}
		memo, ok := mem.manifests[path]
		if !ok || memo.state != st {
			memo = manifestMemo{state: st}
			if ss, err := trace.OpenShardSet(path); err == nil {
				for _, sh := range ss.Manifest.Shards {
					memo.shards = append(memo.shards, filepath.Join(ss.Dir, sh.File))
				}
			} // else: malformed document, claims nothing until rewritten
			mem.manifests[path] = memo
		}
		for _, p := range memo.shards {
			claimed[p] = true
		}
	}
	for path := range mem.manifests {
		if !seenManifests[path] {
			delete(mem.manifests, path)
		}
	}
	s.mu.Lock()
	for p := range claimed {
		if !s.shardFiles[p] {
			s.dropPathLocked(p)
			// Forget the path's settled state: if it is ever released
			// again it must re-ingest from scratch.
			delete(mem.ingested, p)
			delete(mem.prev, p)
		}
	}
	for p := range s.shardFiles {
		if !claimed[p] {
			// Released (its manifest is gone): a kept file becomes an
			// ordinary ingest candidate with fresh stability tracking.
			delete(mem.ingested, p)
			delete(mem.prev, p)
		}
	}
	s.shardFiles = claimed
	s.mu.Unlock()

	// Pass 2: stable, unclaimed candidates not yet ingested at their
	// current state become jobs.
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.IsDir() || !spoolCandidate(e.Name()) {
			continue
		}
		path := filepath.Join(s.cfg.SpoolDir, e.Name())
		seen[path] = true
		s.mu.Lock()
		claimed := s.shardFiles[path]
		s.mu.Unlock()
		if claimed {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		st := scanState{size: info.Size(), mtime: info.ModTime()}
		last, sighted := mem.prev[path]
		mem.prev[path] = st
		if !sighted || last != st {
			continue // first sighting or still changing; wait a scan
		}
		if mem.ingested[path] == st {
			continue // settled: already ingested (or failed) at this state
		}
		// Record the state before Add so a persistently broken file is
		// checksummed once, not on every scan; rewriting it changes the
		// state and retries.
		mem.ingested[path] = st
		if _, err := s.Add(path); err != nil {
			s.cfg.Logger.Printf("serve: spool %s: %v", e.Name(), err)
		}
	}
	for path := range mem.prev {
		if !seen[path] {
			delete(mem.prev, path)
			delete(mem.ingested, path)
		}
	}
}

// dropPathLocked removes a path's standalone registration (caller holds
// s.mu): the path-to-checksum binding goes away, and the job itself is
// removed when no other path shares its dataset. Used when a manifest
// claims a file that had been ingested as its own dataset.
func (s *Server) dropPathLocked(path string) {
	sum, ok := s.byPath[path]
	if !ok {
		return
	}
	delete(s.byPath, path)
	for _, other := range s.byPath {
		if other == sum {
			return // the dataset is still reachable via another path
		}
	}
	delete(s.jobs, sum)
	for i, id := range s.order {
		if id == sum {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.cfg.Logger.Printf("serve: %s: claimed as a shard, standalone job dropped", s.displayPath(path))
}
