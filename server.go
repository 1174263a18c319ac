package geosocial

// Service entry points: the facade wiring that turns the streaming
// validation engine into the long-running geoserve service. The
// internal/serve package owns spool watching, job scheduling, the LRU
// result cache and the HTTP API; validation itself is injected from
// here as one serve.ValidateFunc, so the service runs the exact engine
// geovalidate runs — which is what makes served partitions
// byte-identical to CLI output on the same dataset, for any worker
// count.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"geosocial/internal/core"
	"geosocial/internal/obs"
	"geosocial/internal/serve"
	"geosocial/internal/visits"
)

// ServerOptions configures NewServer. The zero value serves the current
// directory as the spool with the paper's validation parameters.
type ServerOptions struct {
	// SpoolDir is the watched dataset directory; uploads land here too.
	// Empty selects "." (required by the underlying service, created if
	// missing).
	SpoolDir string
	// MaxJobs caps concurrent validations (<= 0 selects 2). Each job
	// additionally fans out per-user work onto Stream.Workers workers.
	MaxJobs int
	// CacheCapacity is the result-cache size in datasets (<= 0 selects
	// 64). Results are cached by dataset checksum; identical bytes are
	// never validated twice while cached.
	CacheCapacity int
	// PollInterval is the spool scan period (0 selects 2s, < 0 disables
	// the watcher; uploads still work).
	PollInterval time.Duration
	// Stream carries the validation parameters, worker count and
	// logger every job runs with, exactly as ValidateFileOpts and
	// UpdateValidation interpret them.
	// Its OutcomeLog and CheckpointDir fields are ignored: the service
	// owns per-job log and checkpoint paths (see Outcomes and
	// Checkpoints).
	Stream StreamOptions
	// Outcomes makes every validation also write a GSO1 outcome log
	// (content-addressed under "outcomes" in the spool) and enables the
	// /v1/datasets/{id}/outcomes and /analysis/{kind} endpoints, wired
	// to AnalyzeOutcomes with default options; analysis documents are
	// cached alongside validation results.
	Outcomes bool
	// NoDiskCache keeps the result cache memory-only. By default every
	// result (and analysis document) is persisted under "cache" in the
	// spool and reloaded lazily after a restart, so a restarted server
	// never revalidates bytes it has already seen. The persisted tiers
	// are namespaced by a fingerprint of the validation parameters, so
	// restarting with different parameters starts a fresh namespace
	// instead of serving results the old parameters computed.
	NoDiskCache bool
	// MaxDiskCache caps the persisted result/analysis entries in files
	// (oldest pruned first; pruned results revalidate from the spool).
	// <= 0 means unbounded.
	MaxDiskCache int
	// MaxOutcomeLogs caps retained outcome logs in files (oldest pruned
	// first; the outcomes/analysis endpoints answer 404 for a pruned
	// log). <= 0 means unbounded.
	MaxOutcomeLogs int
	// Checkpoints gives every shard-set validation a per-dataset
	// checkpoint directory under "checkpoints" in the spool (namespaced
	// by the parameter fingerprint, like the cache and outcome tiers).
	// A job interrupted by a crash or server restart then resumes from
	// its completed shards on retry instead of revalidating everything;
	// the checkpoints of a successfully completed job are removed.
	Checkpoints bool
	// MaxCheckpointRuns caps retained checkpoint run directories
	// (oldest pruned first after a failed validation; pruning costs
	// only that run's partial progress). <= 0 means unbounded.
	MaxCheckpointRuns int
	// Logger, when non-nil, receives one info line per service
	// lifecycle event. A nil logger stays silent.
	Logger *obs.Logger
	// Registry, when non-nil, receives every geoserve_* instrument and
	// backs the /metrics exposition (one Server per Registry). Nil makes
	// a private registry; /metrics works either way.
	Registry *obs.Registry
	// Stream.Spans, when set, is shared with the service layer: the
	// validation pipeline's stage spans and the service's own cache-tier
	// and append-apply spans land in one collector, exported on /metrics
	// as the geoserve_stage_*_total families.
}

// NewServer constructs the validation service: a spool-watching,
// upload-accepting HTTP server (it implements http.Handler) that
// validates datasets through this package's streaming engine and caches
// results by dataset checksum. The caller binds it to a listener
// (cmd/geoserve does) and must Close it on shutdown; see docs/API.md
// for the endpoints.
func NewServer(opts ServerOptions) (*serve.Server, error) {
	if opts.SpoolDir == "" {
		opts.SpoolDir = "."
	}
	cfg := serve.Config{
		SpoolDir:            opts.SpoolDir,
		MaxJobs:             opts.MaxJobs,
		CacheCapacity:       opts.CacheCapacity,
		NoDiskCache:         opts.NoDiskCache,
		ParamsTag:           validationFingerprint(opts.Stream),
		MaxDiskCacheEntries: opts.MaxDiskCache,
		RetainOutcomes:      opts.Outcomes,
		MaxOutcomeLogs:      opts.MaxOutcomeLogs,
		RetainCheckpoints:   opts.Checkpoints,
		MaxCheckpointRuns:   opts.MaxCheckpointRuns,
		PollInterval:        opts.PollInterval,
		Logger:              opts.Logger,
		Registry:            opts.Registry,
		Spans:               opts.Stream.Spans,
		Validate: func(req serve.Request) (*StreamResult, error) {
			o := opts.Stream
			o.OutcomeLog = req.OutcomeLog
			o.CheckpointDir = req.CheckpointDir
			if req.Prev != nil {
				return UpdateValidation(req.Path, req.Prev, req.PrevLog, o)
			}
			return ValidateFileOpts(req.Path, o)
		},
	}
	if opts.Outcomes {
		cfg.AnalysisKinds = AnalysisKinds()
		// Analysis documents are encoded here, once, in the shared
		// presentation encoding — the cache stores and the endpoint
		// serves those bytes verbatim, so service output stays
		// byte-identical to geoanalyze -json on the same log.
		cfg.Analyze = func(logPath, kind string) ([]byte, error) {
			a, err := AnalyzeOutcomes(logPath, kind)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := core.WriteIndentedJSON(&buf, a); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	return srv, nil
}

// validationFingerprint names the persisted-tier namespace for a
// validation configuration: a short hash of the resolved matching and
// visit-detection parameters. Dataset bytes alone do not determine a
// result — the parameters do too — so a server restarted with
// different parameters must not reuse results persisted under the old
// ones. Zero options resolve to the paper defaults before hashing, so
// "defaults by omission" and "defaults spelled out" share a namespace.
// Workers are excluded: results are identical for any worker count.
func validationFingerprint(o StreamOptions) string {
	params := o.Params
	if params == (core.Params{}) {
		params = core.DefaultParams()
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("gso-params|%+v|%+v", params, visits.DefaultConfig())))
	return hex.EncodeToString(h[:6])
}
