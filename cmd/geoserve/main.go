// Command geoserve runs the long-running validation service: it
// watches a spool directory (and accepts HTTP uploads) for datasets —
// JSON, binary GSB1, or shard-set manifests — validates them through
// the same streaming engine geovalidate uses, and serves cached results
// over HTTP, keyed by dataset checksum so identical bytes are never
// validated twice.
//
// Usage:
//
//	geoserve -spool ./spool                       # serve on :8080
//	geoserve -spool ./spool -addr 127.0.0.1:9090
//	geoserve -spool ./spool -workers 8 -max-jobs 4 -cache 128
//	geoserve -spool ./spool -poll 500ms           # fast spool pickup
//	geoserve -spool ./spool -debug-addr 127.0.0.1:6060  # pprof endpoint
//
// Endpoints (full reference with curl examples in docs/API.md):
//
//	POST /v1/datasets                 upload a dataset (?wait=1 blocks)
//	POST /v1/datasets/{id}/append     append a GSB1 delta stream to a shard set
//	GET  /v1/datasets                 list datasets
//	GET  /v1/datasets/{id}            status + full StreamResult JSON
//	GET  /v1/datasets/{id}/partition  Figure 1 partition
//	GET  /v1/datasets/{id}/taxonomy   §5.1 taxonomy
//	GET  /v1/datasets/{id}/outcomes   raw GSO1 outcome log bytes
//	GET  /v1/datasets/{id}/analysis/{kind}  §5–§7 analysis (summary,
//	                                  correlations, detector, levy, tradeoff)
//	GET  /healthz                     liveness (JSON status + build version)
//	GET  /metrics                     Prometheus text-exposition metrics
//
// Results are byte-identical to geovalidate -json on the same dataset
// for any -workers value, and analysis documents to geoanalyze -json
// on the dataset's outcome log. Results and analyses persist in a
// "cache" directory under the spool (content-addressed by checksum,
// namespaced by a validation-parameter fingerprint), so a restarted
// server never revalidates bytes it has already seen — and never
// reuses results computed under different parameters; -no-disk-cache
// keeps the cache memory-only, -disk-cache-max bounds it. Outcome
// logs live under "outcomes" in the spool (-outcomes-max bounds
// them); -outcomes=false disables them and the analysis endpoints.
// With -checkpoints, shard-set validations write per-shard checkpoints
// under "checkpoints" in the spool (same parameter-fingerprint
// namespacing), so a job interrupted by a crash or restart resumes
// from its completed shards when retried; -checkpoints-max bounds the
// retained run directories, and crash debris older than an hour is
// swept. Shard sets accept live appends:
// POST /v1/datasets/{id}/append grows the corpus by a GSB1 delta
// stream and revalidates it incrementally — only the appended users'
// work is redone, and the new result is byte-identical to a cold
// validation of the grown corpus. The server shuts down gracefully on
// SIGINT / SIGTERM: in-flight validations and HTTP requests drain
// before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only on -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"geosocial"
	"geosocial/internal/obs"
)

// errUsage signals a flag-parse failure the flag package has already
// reported to stderr; main exits 2 without printing it again.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("geoserve: ")
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run executes the service until ctx is cancelled. The listen banner
// (and shutdown notice) go to stdout — scripts and tests parse the
// banner for the resolved address — while every lifecycle log line
// (discovered, validated, failed, cache hit) goes through the
// structured logger to stderr, where -log-level / -log-format / -quiet
// control it. It is the whole tool minus process concerns, so tests
// can drive it directly.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("geoserve", flag.ContinueOnError)
	obsFlags := obs.RegisterCLIFlags(fs, "geoserve")
	var (
		addr         = fs.String("addr", ":8080", "HTTP listen address")
		spool        = fs.String("spool", "", "spool directory watched for datasets (required; created if missing)")
		workers      = fs.Int("workers", 0, "per-job pipeline workers (0 = all cores, 1 = serial; results are identical)")
		maxJobs      = fs.Int("max-jobs", 2, "concurrent validations; further datasets queue")
		cache        = fs.Int("cache", 64, "result-cache capacity in datasets (LRU, keyed by checksum)")
		poll         = fs.Duration("poll", 2*time.Second, "spool scan interval")
		outcomes     = fs.Bool("outcomes", true, "retain per-dataset outcome logs and serve the analysis endpoints")
		outcomesMax  = fs.Int("outcomes-max", 0, "max retained outcome logs, oldest pruned first (0 = unbounded)")
		noDiskCache  = fs.Bool("no-disk-cache", false, "keep the result cache memory-only (no cache/ dir under the spool)")
		diskCacheMax = fs.Int("disk-cache-max", 0, "max persisted result/analysis entries, oldest pruned first (0 = unbounded)")
		ckpts        = fs.Bool("checkpoints", false, "checkpoint shard-set validations under the spool so interrupted jobs resume")
		ckptsMax     = fs.Int("checkpoints-max", 8, "max retained checkpoint run directories, oldest pruned first (0 = unbounded)")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof on this address (off by default; bind loopback, the endpoint is unauthenticated)")
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
	if *spool == "" {
		return fmt.Errorf("missing -spool directory (datasets are watched for and uploaded there)")
	}

	srv, err := geosocial.NewServer(geosocial.ServerOptions{
		SpoolDir:          *spool,
		MaxJobs:           *maxJobs,
		CacheCapacity:     *cache,
		PollInterval:      *poll,
		Outcomes:          *outcomes,
		MaxOutcomeLogs:    *outcomesMax,
		NoDiskCache:       *noDiskCache,
		MaxDiskCache:      *diskCacheMax,
		Checkpoints:       *ckpts,
		MaxCheckpointRuns: *ckptsMax,
		Stream:            geosocial.StreamOptions{Workers: *workers, Logger: logger},
		Logger:            logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	if *debugAddr != "" {
		// Profiling lives on its own listener so the public API surface
		// never exposes it; the handlers sit on http.DefaultServeMux,
		// where the net/http/pprof import registered them.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("listen -debug-addr: %w", err)
		}
		defer dln.Close()
		fmt.Fprintf(stdout, "geoserve: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	// The banner reports the resolved address so -addr :0 is usable
	// (tests and scripts parse this line).
	fmt.Fprintf(stdout, "geoserve: listening on http://%s (spool %s)\n", ln.Addr(), *spool)

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "geoserve: shutting down")
	// Close the service first (concurrently): it releases ?wait=1
	// long-pollers immediately, so Shutdown can drain their requests
	// instead of timing out on them, and then drains running
	// validations while HTTP winds down.
	closec := make(chan error, 1)
	go func() { closec <- srv.Close() }()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return <-closec
}
