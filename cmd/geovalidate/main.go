// Command geovalidate runs the §4–§5 validation pipeline on a saved
// dataset: visit detection, checkin-to-visit matching (α = 500 m,
// β = 30 min), the Figure 1 partition, and the extraneous-checkin
// taxonomy.
//
// Usage:
//
//	geovalidate -in primary.json.gz
//	geovalidate -in primary.bin.gz                # binary datasets stream
//	geovalidate -in primary.manifest.json         # sharded corpus, shards in parallel
//	geovalidate -in ./data                        # directory with one manifest
//	geovalidate -in primary.json.gz -alpha 250 -beta 15m
//	geovalidate -in primary.json.gz -workers 8    # validate users on 8 workers
//	geovalidate -in primary.bin.gz -json          # machine-readable StreamResult
//	geovalidate -in primary.bin.gz -outcomes out.gso   # + columnar outcome log
//	geovalidate -in primary.manifest.json -checkpoint ./ckpt   # resumable run
//	geovalidate -in grown.manifest.json -update-from prev.json -prev-outcomes prev.gso
//	geovalidate -in primary.bin.gz -cpuprofile cpu.pprof -memprofile mem.pprof
//	geovalidate -in primary.bin.gz -report text   # per-stage span breakdown on stderr
//	geovalidate -in primary.bin.gz -log-level debug -log-format json
//	geovalidate -version
//
// The dataset encoding (JSON or binary, gzip or not) is detected from
// magic bytes, not the file name. Binary datasets are validated one
// user at a time through a bounded in-flight window — raw frames are
// fetched sequentially and decoded on the worker pool — so memory stays
// O(workers) regardless of dataset size; JSON datasets are loaded in
// memory first. When -in names a shard-set manifest (or a directory
// holding one), the shards are read concurrently and validated as one
// corpus; the report is identical to validating the equivalent single
// file and adds a per-shard line (or, with -json, per-shard stats).
// The -workers flag controls per-user pipeline parallelism (0 = all
// cores); results are identical for any worker count and for the
// streaming and in-memory paths.
//
// With -outcomes the run additionally writes a GSO1 columnar outcome
// log (gzip when the path ends in ".gz"): one compact record per user
// carrying everything the §5–§7 analyses need, for geoanalyze to
// consume without revalidating. The log bytes are identical for any
// -workers value and for any shard split of the same dataset.
//
// With -checkpoint a shard-set validation becomes resumable: each
// completed shard's results are persisted atomically in the given
// directory, and a rerun after a crash or kill skips the checkpointed
// shards, replays their outcomes, and produces output byte-identical
// to an uninterrupted run (see docs/FORMAT.md for the fragment
// format). Checkpoints are keyed by the manifest, the shard bytes, and
// the validation parameters, so a stale or mismatched checkpoint is
// never reused. The flag is ignored for single-file datasets. A
// resuming run deletes an interrupted run's leftover temporary files
// once they are an hour old.
//
// With -update-from (and its required companion -prev-outcomes) the
// run is incremental: -in must name a manifest grown by appended
// delta generations (geoappend), -update-from the -json document and
// -prev-outcomes the outcome log of a validation of an earlier
// generation. Only users the appended deltas touched are revalidated;
// the report, the -json document, and the -outcomes log are
// byte-identical to a full cold run on the same manifest.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"geosocial"
	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/obs"
)

// errUsage signals a flag-parse failure the flag package has already
// reported to stderr; main exits 2 without printing it again.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("geovalidate: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run executes the tool against args, writing its report to stdout and
// every log line (and the -report span breakdown) to stderr — stdout
// carries only the report or the -json document, so piping either never
// picks up log noise. It is the whole tool minus process concerns, so
// tests can drive it directly.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("geovalidate", flag.ContinueOnError)
	obsFlags := obs.RegisterCLIFlags(fs, "geovalidate")
	var (
		in       = fs.String("in", "", "dataset file, shard manifest, or directory holding one manifest")
		alpha    = fs.Float64("alpha", 500, "spatial matching threshold in meters")
		beta     = fs.Duration("beta", 30*time.Minute, "temporal matching threshold")
		truth    = fs.Bool("truth", true, "score the matcher against ground-truth labels when present")
		workers  = fs.Int("workers", 0, "per-user pipeline workers (0 = all cores, 1 = serial; results are identical)")
		asJSON   = fs.Bool("json", false, "emit the full StreamResult as JSON instead of the text report")
		outcomes = fs.String("outcomes", "", "write a GSO1 outcome log here for geoanalyze (gzip when ending in .gz)")
		ckpt     = fs.String("checkpoint", "", "checkpoint directory for resumable shard-set validation (completed shards are skipped on rerun)")
		updFrom  = fs.String("update-from", "", "previous run's -json result document; revalidate only users the appended generations touched")
		prevLog  = fs.String("prev-outcomes", "", "previous run's outcome log, required with -update-from (supplies the superseded per-user records)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the validation here (inspect with go tool pprof)")
		memProf  = fs.String("memprofile", "", "write an allocation profile here after the validation completes")
		report   = fs.String("report", "", `write a per-stage pipeline span report to stderr after the run: "text" or "json"`)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if obsFlags.PrintVersion(stdout) {
		return nil
	}
	logger, err := obsFlags.Logger(stderr)
	if err != nil {
		return err
	}
	if *report != "" && *report != "text" && *report != "json" {
		return fmt.Errorf(`-report must be "text" or "json", not %q`, *report)
	}
	if *in == "" {
		return fmt.Errorf("missing -in dataset file (generate one with geogen)")
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("create -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fmt.Errorf("create -memprofile: %w", err)
		}
		// Written on the way out so the profile covers the whole run;
		// an extra GC first makes the live-heap numbers meaningful.
		defer func() {
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				logger.Errorf("write -memprofile: %v", err)
			}
		}()
	}
	opts := geosocial.StreamOptions{
		Params:        core.Params{Alpha: *alpha, Beta: *beta},
		Workers:       *workers,
		OutcomeLog:    *outcomes,
		CheckpointDir: *ckpt,
		// Checkpoint lifecycle lines (hits, writes, unreadable
		// fragments) go through the structured logger to stderr so they
		// never disturb the report or the -json document on stdout.
		// -quiet / -log-level off silence them.
		Logger: logger,
	}
	if *report != "" {
		// Span collection is opt-in: a nil collector costs the pipeline
		// nothing, and results are byte-identical either way.
		opts.Spans = obs.NewCollector()
	}
	var res *geosocial.StreamResult
	if *updFrom != "" {
		if *prevLog == "" {
			return fmt.Errorf("-update-from requires -prev-outcomes (the previous run's outcome log)")
		}
		prev, perr := loadPrevResult(*updFrom)
		if perr != nil {
			return perr
		}
		res, err = geosocial.UpdateValidation(*in, prev, *prevLog, opts)
	} else {
		if *prevLog != "" {
			return fmt.Errorf("-prev-outcomes is only meaningful with -update-from")
		}
		res, err = geosocial.ValidateFileOpts(*in, opts)
	}
	if err != nil {
		return err
	}
	if !*truth {
		res.Truth = nil
	}

	// The span report goes to stderr after the primary output, so
	// stdout stays byte-identical with and without -report.
	emitSpans := func() error {
		if opts.Spans == nil {
			return nil
		}
		rep := opts.Spans.Report()
		if *report == "json" {
			return rep.WriteJSON(stderr)
		}
		return rep.WriteText(stderr)
	}

	if *asJSON {
		// The shared presentation encoding keeps this output
		// byte-comparable with the geoserve HTTP API.
		if err := core.WriteIndentedJSON(stdout, res); err != nil {
			return err
		}
		return emitSpans()
	}

	fmt.Fprintf(stdout, "dataset %q (%s): %d users\n", res.Name, res.Format, res.Users)
	fmt.Fprintf(stdout, "matching (alpha=%.0fm beta=%v): %v\n", *alpha, *beta, res.Partition)

	fmt.Fprintln(stdout, "checkin taxonomy:")
	for _, k := range []classify.Kind{classify.Honest, classify.Superfluous, classify.Remote, classify.Driveby, classify.Other} {
		n := res.Taxonomy[k.String()]
		fmt.Fprintf(stdout, "  %-12s %6d (%.1f%%)\n", k, n, 100*float64(n)/maxf(float64(res.Partition.Checkins), 1))
	}

	if res.Truth != nil {
		fmt.Fprintf(stdout, "matcher vs ground truth: accuracy %.3f, honest precision %.3f, recall %.3f\n",
			res.Truth.Accuracy, res.Truth.HonestP, res.Truth.HonestR)
	}

	for _, st := range res.Shards {
		fmt.Fprintf(stdout, "shard %s: %d users, honest=%d extraneous=%d missing=%d\n",
			st.Path, st.Users, st.Partition.Honest, st.Partition.Extraneous, st.Partition.Missing)
	}
	if *outcomes != "" {
		fmt.Fprintf(stdout, "outcome log: %s (analyze with geoanalyze)\n", *outcomes)
	}
	return emitSpans()
}

// loadPrevResult decodes a previous run's -json document for
// -update-from. The document must be the unmodified StreamResult JSON
// (in particular with its truth block intact) or the updated result
// would diverge from a cold revalidation.
func loadPrevResult(path string) (*geosocial.StreamResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var prev geosocial.StreamResult
	if err := json.Unmarshal(raw, &prev); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &prev, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
