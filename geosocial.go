// Package geosocial validates geosocial mobility traces against
// ground-truth GPS mobility, reproducing "On the Validity of Geosocial
// Mobility Traces" (Zhang et al., HotNets 2013).
//
// The package is a facade over the full pipeline:
//
//   - generate (or load) a study dataset of paired GPS + checkin traces,
//   - detect visits (stay points) in the GPS traces,
//   - match checkins to visits (α = 500 m, β = 30 min) and partition
//     events into honest / extraneous / missing,
//   - classify extraneous checkins (superfluous / remote / driveby),
//   - analyze incentive correlations, prevalence and burstiness,
//   - fit Levy-walk mobility models and measure the application-level
//     impact on a simulated mobile ad hoc network (AODV).
//
// Quick start:
//
//	study, err := geosocial.GenerateStudy(geosocial.StudyConfig{Scale: 0.2, Seed: 42})
//	...
//	res, err := study.Validate()
//	fmt.Println(res.Partition)          // Figure 1
//	fmt.Println(res.Breakdown())        // §5.1 taxonomy
//
// The full experiment suite (every table and figure in the paper) is
// available through Experiments / RunExperiment.
package geosocial

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"geosocial/internal/checkpoint"
	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/detect"
	"geosocial/internal/eval"
	"geosocial/internal/levy"
	"geosocial/internal/manet"
	"geosocial/internal/obs"
	"geosocial/internal/outcome"
	"geosocial/internal/par"
	recoverpkg "geosocial/internal/recover"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

// StudyConfig configures synthetic study generation.
type StudyConfig struct {
	// Scale is the population scale relative to the paper's study
	// (1.0 = 244 primary + 47 baseline users). Values in (0, 1] trade
	// fidelity for speed; 0 defaults to 1.0.
	Scale float64
	// Seed makes the whole study reproducible.
	Seed uint64
	// Parallelism is the number of workers used by every per-user
	// pipeline stage (generation, visit detection + matching,
	// classification). <= 0 selects runtime.GOMAXPROCS(0); 1 runs the
	// serial path. Results are byte-identical for any value and any
	// GOMAXPROCS: per-user random streams are split serially before work
	// fans out, and the engine accounts users in dataset order.
	Parallelism int
}

// Study is a generated (or loaded) pair of datasets. Each cohort is
// validated at most once, on first use: Validate and every
// RunExperiment share that run, so the datasets must not change once
// either has been called.
type Study struct {
	Primary  *trace.Dataset
	Baseline *trace.Dataset
	cfg      StudyConfig

	primary, baseline cohort
}

// cohort is one dataset's shared validation.
type cohort struct {
	once sync.Once
	res  *ValidationResult
	err  error
}

// validate runs ds through the engine the first time it is called and
// returns that run's result every time.
func (c *cohort) validate(ds *trace.Dataset, workers int) (*ValidationResult, error) {
	c.once.Do(func() { c.res, c.err = validateCohort(ds, workers) })
	return c.res, c.err
}

// validateCohort is the run behind a study's cohort; tests replace it
// to count runs.
var validateCohort = ValidateDatasetWorkers

// GenerateStudy produces the synthetic Primary and Baseline datasets
// (the substitution for the paper's user study; see DESIGN.md).
func GenerateStudy(cfg StudyConfig) (*Study, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	if cfg.Scale < 0 {
		return nil, fmt.Errorf("geosocial: negative scale %g", cfg.Scale)
	}
	root := rng.New(cfg.Seed)
	// The per-cohort budget is split so an explicit Parallelism cap bounds
	// the total worker count across the nested fan-out.
	primaryCfg := synth.PrimaryConfig().Scale(cfg.Scale)
	primaryCfg.Parallelism = par.SplitBudget(cfg.Parallelism, 2)
	baselineCfg := synth.BaselineConfig().Scale(cfg.Scale)
	baselineCfg.Parallelism = primaryCfg.Parallelism
	// Split both streams serially so the root stream advances exactly as
	// the serial path does, then generate the two cohorts concurrently.
	cfgs := []synth.Config{primaryCfg, baselineCfg}
	streams := []*rng.Stream{root.Split("primary"), root.Split("baseline")}
	datasets, err := par.Map(cfg.Parallelism, len(cfgs), func(i int) (*trace.Dataset, error) {
		return synth.Generate(cfgs[i], streams[i])
	})
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	return &Study{Primary: datasets[0], Baseline: datasets[1], cfg: cfg}, nil
}

// LoadDataset reads a dataset saved by Dataset.SaveFile / cmd/geogen into
// memory. Compression and encoding (JSON or binary) are detected from
// magic bytes; use ValidateFileOpts to process binary datasets without
// materializing them.
func LoadDataset(path string) (*trace.Dataset, error) { return trace.LoadFile(path) }

// StreamOptions tunes ValidateFileOpts and UpdateValidation. The zero
// value selects the paper's parameters and the default worker count.
type StreamOptions struct {
	// Params are the matching thresholds (core.DefaultParams when zero).
	// Stay-point detection always uses visits.DefaultConfig.
	Params core.Params
	// Workers is the per-user pipeline worker count (<= 0 selects
	// GOMAXPROCS, 1 the serial path; results are identical for any
	// value).
	Workers int
	// OutcomeLog, when non-empty, is a path the validation writes a
	// GSO1 columnar outcome log to (gzip when it ends in ".gz"): one
	// compact record per user carrying everything the §5–§7 analyses
	// need, consumable by AnalyzeOutcomes and cmd/geoanalyze without
	// per-user outcomes in memory. The log is published atomically on
	// success and holds records in canonical user-ID order, so its
	// bytes are identical for any worker count and any shard split of
	// the same dataset.
	OutcomeLog string
	// CheckpointDir, when non-empty, makes sharded validation crash-safe
	// and resumable: as each shard completes, its results (aggregate
	// counters, user IDs, and outcome-log records when OutcomeLog is
	// set) are published atomically to a checkpoint fragment in this
	// directory, keyed by (manifest checksum, shard checksum, parameter
	// fingerprint). A rerun of the same corpus with the same parameters
	// skips every checkpointed shard and merges its fragment instead,
	// producing a StreamResult — and an outcome log — byte-identical to
	// an uninterrupted run, for any worker count. Only shard-set inputs
	// checkpoint; plain files ignore the field.
	// See docs/FORMAT.md for the fragment format and atomicity contract.
	CheckpointDir string
	// Logger, when non-nil, receives one info line per checkpoint event
	// (shard skipped, checkpoint written, corrupt fragment recovered).
	// A nil logger stays silent.
	Logger *obs.Logger
	// Spans, when non-nil, collects per-stage, per-shard pipeline spans
	// (decode, fold, segment, match, classify, merge, checkpoint-commit)
	// — record counts and summed wall time — for the post-run breakdown
	// `geovalidate -report` renders. Instrumentation never feeds back
	// into results: with or without a collector the StreamResult and the
	// outcome log are byte-identical, and a nil collector costs nothing
	// on the hot path (no clock reads, no allocation).
	Spans *obs.Collector

	// keep, when non-nil, receives every validated user's outcome and
	// classification as the engine accounts it: serially, in merged
	// order. The in-memory API collects its result through it; tests
	// use it to assert which users a run validated. A file or shard
	// source recycles the user once keep returns, so there keep must
	// not retain it.
	keep func(core.UserOutcome, *classify.Classification)
}

// StreamResult is the bounded-memory analogue of ValidationResult: the
// aggregate outputs of validating a dataset file (or sharded corpus)
// user by user, without retaining per-user outcomes. The whole struct
// marshals to JSON (geovalidate -json), and the geoserve service caches
// and serves the same representation; see core.StreamResult for the
// field-name compatibility contract.
type StreamResult = core.StreamResult

// ShardStat describes one input stream of a multi-file validation run.
type ShardStat = core.ShardStat

// ValidateFileOpts runs the full validation pipeline over a dataset
// file. The path may also name a shard-set manifest
// ("*.manifest.json") or a directory containing exactly one — the
// shards are then read concurrently and validated as one corpus with an
// aggregate result byte-identical to validating the equivalent single
// file. The zero StreamOptions select the paper's parameters and the
// default worker count; cmd/geovalidate's -alpha/-beta flags thread
// through opts.
//
// Binary inputs are streamed: raw frames are fetched sequentially per
// file, and every CPU-heavy per-user stage — frame decode, validation
// (visit detection + matching) and classification — runs inside the
// bounded parallel window on the worker pool, so in-flight users stay
// O(workers + shards) regardless of corpus size (the only per-user
// state retained is the integer duplicate-ID set, as in
// trace.StreamReader). JSON datasets are loaded in memory first (the
// document encoding cannot be streamed). The aggregate results are
// identical to loading the same users and running ValidateDataset, for
// any worker count.
func ValidateFileOpts(path string, opts StreamOptions) (*StreamResult, error) {
	if info, err := os.Stat(path); err == nil &&
		(info.IsDir() || strings.HasSuffix(path, trace.ManifestSuffix)) {
		return validateShardSet(path, opts)
	}
	stream, err := trace.OpenStream(path)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	defer stream.Close()
	p := &plan{name: stream.Name, shards: []string{path},
		sources: []source{{src: stream.Frames()}}}
	res, err := p.run(opts)
	if err != nil {
		return nil, err
	}
	res.Format = stream.Format
	res.Shards = nil // a plain file is not a shard set
	return res, nil
}

// validateShardSet builds the plan for a manifest-described sharded
// corpus: one source per shard.
//
// A generational set (manifest Generation > 0) validates by folding: the
// delta shards are decoded up front into a DeltaSet (O(appended data)),
// every base-shard source is wrapped so touched users decode with their
// delta frames folded in, and users that exist only in delta shards are
// folded and validated after the streams, attributed to their home
// delta shard. The result is byte-identical to validating a
// from-scratch corpus of the concatenated data, modulo the per-shard
// layout. Checkpointing is skipped for generational sets: a delta
// changes every touched user's fold, so per-shard fragments keyed on
// shard content alone would be unsound.
func validateShardSet(path string, opts StreamOptions) (*StreamResult, error) {
	ss, err := trace.OpenShardSet(path)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	k := len(ss.Manifest.Shards)
	p := &plan{name: ss.Manifest.Name, shards: make([]string, k)}
	var ds *trace.DeltaSet
	if ss.Manifest.Generation > 0 {
		// The up-front delta decode is corpus-wide fold work, attributed
		// to the pseudo-shard "corpus" in the span report.
		foldCell := opts.Spans.Stage("fold", "corpus")
		t := foldCell.Start()
		if ds, err = trace.MergeSets(ss, 0); err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
		foldCell.Stop(t, ds.Len())
		p.newUsers = make([]int, k)
	}
	readers := make([]*trace.StreamReader, k)
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.Close()
			}
		}
	}()
	for i, info := range ss.Manifest.Shards {
		p.shards[i] = info.File
		if ds != nil && info.Delta {
			// Delta shards are not streamed — their content is already in
			// the DeltaSet — but they keep a stats slot for the new users
			// attributed to them.
			p.newUsers[i] = info.NewUsers
			continue
		}
		if ds != nil {
			p.newUsers[i] = -1
		}
		r, err := ss.OpenShard(i)
		if err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
		readers[i] = r
		var src trace.FrameSource = r
		if ds != nil {
			src = ds.FoldSource(r)
		}
		p.sources = append(p.sources, source{src: src, slot: i})
	}
	if len(p.sources) == 0 {
		return nil, fmt.Errorf("geosocial: %s: shard set has no base shards", path)
	}
	if ds != nil {
		// Every delta user is a fold candidate; the engine skips those a
		// base-shard source already validated, leaving the brand-new ones.
		for _, id := range ds.IDs() {
			p.fold = append(p.fold, foldItem{id: id, slot: ds.Home(id)})
		}
		p.foldUser = func(i int) (*trace.User, error) { return ds.FoldNew(p.fold[i].id) }
		if opts.CheckpointDir != "" {
			opts.Logger.Printf("geosocial: generational shard set (generation %d): checkpointing skipped", ss.Manifest.Generation)
		}
	} else if err := planCheckpoints(p, ss, opts); err != nil {
		return nil, err
	}
	res, err := p.run(opts)
	if err != nil {
		return nil, err
	}
	res.Format = trace.FormatBinary
	res.Generation = ss.Manifest.Generation
	return res, nil
}

// planCheckpoints makes a shard-set plan crash-safe and resumable when
// opts asks for it. It opens the checkpoint store and preloads each
// shard's fragment (meta and user IDs only; outcome-log records are
// replayed by the engine, once the log writer exists). A shard with a
// fragment becomes a precomputed contribution instead of a source;
// every other source checkpoints as it streams. A fragment that fails
// to decode is removed and its shard revalidates — corruption degrades
// to recomputation, never to a wrong or aborted result. Checkpointed
// and live shards contribute through the same commutative sums, which
// is why a resumed result is byte-identical to an uninterrupted one.
func planCheckpoints(p *plan, ss *trace.ShardSet, opts StreamOptions) error {
	if opts.CheckpointDir == "" {
		return nil
	}
	// The parameter fingerprint is half of the checkpoint key; logging
	// runs carry a distinct tag because their fragments must hold the
	// per-user records a log-less fragment legitimately omits.
	tag := validationFingerprint(opts)
	if opts.OutcomeLog != "" {
		tag += "+log"
	}
	store, err := checkpoint.Open(opts.CheckpointDir, checkpoint.ManifestChecksum(&ss.Manifest), tag)
	if err != nil {
		return fmt.Errorf("geosocial: %w", err)
	}
	live := p.sources[:0]
	for _, s := range p.sources {
		label := p.shards[s.slot]
		sum, err := checkpoint.FileChecksum(filepath.Join(ss.Dir, label))
		if err != nil {
			return fmt.Errorf("geosocial: %w", err)
		}
		m, ids, err := store.Load(sum, nil)
		if err != nil {
			opts.Logger.Printf("geosocial: shard %s: checkpoint unreadable, revalidating: %v", label, err)
			if err := store.Remove(sum); err != nil {
				return fmt.Errorf("geosocial: %w", err)
			}
		}
		if m == nil {
			s.ckpt, s.sum = store, sum
			live = append(live, s)
			continue
		}
		c := contribution{
			slot:  s.slot,
			tally: tally{users: m.Users, part: m.Partition, tax: m.Taxonomy},
			ids:   ids,
			note:  fmt.Sprintf("geosocial: shard %s: checkpoint hit, skipping (%d users)", label, m.Users),
			replay: func(emit func(*outcome.Record) error) error {
				if _, _, err := store.Load(sum, func(data []byte) error {
					rec, err := outcome.DecodeRecord(data)
					if err != nil {
						return err
					}
					return emit(rec)
				}); err != nil {
					return fmt.Errorf("replay checkpoint for %s: %w", label, err)
				}
				return nil
			},
		}
		c.truth.AddCounts(m.Truth)
		p.add = append(p.add, c)
	}
	p.sources = live
	return nil
}

// ValidationResult is the outcome of the §4 pipeline on one dataset.
type ValidationResult struct {
	// Outcomes holds per-user visits and matches.
	Outcomes []core.UserOutcome
	// Partition is the Figure 1 Venn split.
	Partition core.Partition
	// Classifications assigns a Kind to every checkin (parallel to
	// Outcomes and each user's checkin trace).
	Classifications []*classify.Classification
}

// Validate runs visit detection, matching and classification on the
// Primary dataset with the paper's parameters and the study's
// Parallelism. The run happens once per study; later calls, and every
// RunExperiment, share its result.
func (s *Study) Validate() (*ValidationResult, error) {
	return s.primary.validate(s.Primary, s.cfg.Parallelism)
}

// ValidateDataset runs the full validation pipeline on any dataset with
// the default worker count (GOMAXPROCS).
func ValidateDataset(ds *trace.Dataset) (*ValidationResult, error) {
	return ValidateDatasetWorkers(ds, 0)
}

// ValidateDatasetWorkers is ValidateDataset with an explicit worker count
// (<= 0 selects GOMAXPROCS, 1 the serial path). The dataset is one
// source of the validation engine, with its POI database so visits are
// snapped; the result is identical for any worker count.
func ValidateDatasetWorkers(ds *trace.Dataset, workers int) (*ValidationResult, error) {
	db, err := ds.DB()
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	res := &ValidationResult{
		Outcomes:        make([]core.UserOutcome, 0, len(ds.Users)),
		Classifications: make([]*classify.Classification, 0, len(ds.Users)),
	}
	p := &plan{name: ds.Name, shards: []string{ds.Name}, db: db,
		sources: []source{{src: trace.SourceFrames(ds.Source())}}}
	sr, err := p.run(StreamOptions{Workers: workers, keep: func(o core.UserOutcome, c *classify.Classification) {
		res.Outcomes = append(res.Outcomes, o)
		res.Classifications = append(res.Classifications, c)
	}})
	if err != nil {
		return nil, err
	}
	res.Partition = sr.Partition
	return res, nil
}

// Breakdown returns the §5.1 taxonomy counts over all checkins.
func (r *ValidationResult) Breakdown() map[string]int {
	tot := classify.Totals(r.Classifications)
	out := make(map[string]int, classify.NumKinds)
	for k, v := range tot {
		out[k.String()] = v
	}
	return out
}

// TruthScore scores the matcher against generator ground-truth labels
// (synthetic data only).
func (r *ValidationResult) TruthScore() (core.TruthScore, error) {
	return core.ScoreAgainstTruth(r.Outcomes)
}

// Correlations computes the Table 2 matrix.
func (r *ValidationResult) Correlations() (*classify.FeatureCorrelations, error) {
	return classify.CorrelateFeatures(r.Outcomes, r.Classifications)
}

// FilterTradeoff computes the §5.3 user-filtering trade-off curve.
func (r *ValidationResult) FilterTradeoff() classify.FilterTradeoff {
	return classify.ComputeFilterTradeoff(r.Classifications)
}

// BurstDetector evaluates the §7 burstiness-based extraneous-checkin
// detector at the given gap threshold.
func (r *ValidationResult) BurstDetector(maxGap time.Duration) classify.DetectorScore {
	d := classify.BurstDetector{MaxGap: maxGap}
	return classify.EvaluateBurstDetector(r.Outcomes, r.Classifications, d)
}

// TrainDetector trains the §7 machine-learned extraneous-checkin detector
// (logistic regression over trace-local features) and evaluates it by
// k-fold cross-validation grouped by user.
func (r *ValidationResult) TrainDetector(folds int) (detect.Score, error) {
	examples := detect.ExtractAll(r.Outcomes)
	return detect.CrossValidate(examples, folds, detect.DefaultTrainConfig(), 0.5)
}

// RecoverMissing evaluates the §7 missing-location recovery: inferring
// home/work anchors from checkins alone and up-sampling the trace,
// scored as ground-truth visit coverage before and after.
func (r *ValidationResult) RecoverMissing() (recoverpkg.Coverage, error) {
	return recoverpkg.EvaluateAll(r.Outcomes, core.DefaultParams())
}

// MobilityModels fits the three §6.1 Levy-walk models (gps,
// honest-checkin, all-checkin).
func (r *ValidationResult) MobilityModels() (*eval.Models, error) {
	return eval.FitModels(r.Outcomes)
}

// MANETConfig configures the §6.2 application-impact experiment.
type MANETConfig struct {
	Nodes    int     // default 200
	Flows    int     // default 100
	Duration float64 // seconds, default 3600
	Seed     uint64
}

// MANETOutcome is the result of one model's simulation.
type MANETOutcome struct {
	Model   string
	Metrics *manet.Metrics
}

// RunMANET fits the three mobility models from this validation result and
// runs the AODV simulation for each.
func (r *ValidationResult) RunMANET(cfg MANETConfig) ([]MANETOutcome, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 200
	}
	if cfg.Flows == 0 {
		cfg.Flows = 100
	}
	if cfg.Duration == 0 {
		cfg.Duration = 3600
	}
	ctx := &eval.Context{PrimaryOuts: r.Outcomes}
	res, err := eval.RunMANET(ctx, eval.MANETScale{
		Nodes: cfg.Nodes, Flows: cfg.Flows, Duration: cfg.Duration,
	}, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	out := make([]MANETOutcome, len(res))
	for i, m := range res {
		out[i] = MANETOutcome{Model: m.Model, Metrics: m.Metrics}
	}
	return out, nil
}

// GenerateMobility produces planar waypoint traces from a fitted model —
// the building block for driving external network simulators.
func GenerateMobility(m *levy.Model, nodes int, opt levy.GenOptions, seed uint64) ([][]levy.Waypoint, error) {
	return m.Generate(nodes, opt, rng.New(seed))
}

// Experiments returns the experiment IDs in presentation order (every
// table and figure in the paper).
func Experiments() []string { return eval.IDs() }

// RunExperiment executes one experiment at the study's scale and writes
// its report to w. It validates each cohort on the study's first use of
// it and shares that run with Validate and later experiments.
func (s *Study) RunExperiment(id string, w io.Writer) error {
	ctx, err := s.evalContext()
	if err != nil {
		return err
	}
	rep, err := eval.Run(ctx, id)
	if err != nil {
		return fmt.Errorf("geosocial: %w", err)
	}
	return rep.Render(w)
}

// evalContext adapts the study's shared cohort validations to the
// experiment harness.
func (s *Study) evalContext() (*eval.Context, error) {
	p, err := s.Validate()
	if err != nil {
		return nil, err
	}
	b, err := s.baseline.validate(s.Baseline, s.cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	return &eval.Context{
		Scale:        s.cfg.Scale,
		Seed:         s.cfg.Seed,
		Primary:      s.Primary,
		Baseline:     s.Baseline,
		PrimaryOuts:  p.Outcomes,
		PrimaryPart:  p.Partition,
		BaselineOuts: b.Outcomes,
		BaselinePart: b.Partition,
		Cls:          p.Classifications,
	}, nil
}
