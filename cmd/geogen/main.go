// Command geogen generates the synthetic study datasets (Primary and
// Baseline) and writes them as JSON or binary (optionally
// gzip-compressed).
//
// Usage:
//
//	geogen -scale 0.25 -seed 42 -out ./data
//	geogen -scale 1.0 -workers 8 -out ./data          # generate users on 8 workers
//	geogen -scale 1.0 -format binary -out ./data      # compact streaming format
//	geogen -format binary -shards 8 -out ./data       # sharded corpus + manifest
//
// produces ./data/primary.json.gz and ./data/baseline.json.gz (or
// .bin.gz with -format binary; binary files are smaller, decode faster
// and can be validated by geovalidate in bounded memory). With
// -shards N each dataset becomes N size-balanced binary shard files
// plus a "<name>.manifest.json" that geovalidate reads to validate the
// shards concurrently. The -workers flag controls per-user generation
// parallelism (0 = all cores); output is byte-identical for any worker
// or shard count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"geosocial/internal/obs"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

// errUsage signals a flag-parse failure the flag package has already
// reported to stderr; main exits 2 without printing it again.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("geogen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run executes the tool against args, writing its report to stdout. It is
// the whole tool minus process concerns, so tests can drive it directly.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("geogen", flag.ContinueOnError)
	ver := obs.RegisterVersionFlag(fs)
	var (
		scale   = fs.Float64("scale", 1.0, "population scale relative to the paper's 244+47 users")
		seed    = fs.Uint64("seed", 42, "root RNG seed")
		outDir  = fs.String("out", ".", "output directory")
		gz      = fs.Bool("gz", true, "gzip-compress the output (binary output at level 1, shards on parallel goroutines; GSB1 binary shrinks only about 1.34x, and reading it back costs about 1 ms/user of inflate)")
		format  = fs.String("format", "json", "dataset encoding: json or binary")
		dataset = fs.String("dataset", "both", "which dataset to generate: primary, baseline or both")
		workers = fs.Int("workers", 0, "user-generation workers (0 = all cores, 1 = serial; output is identical)")
		shards  = fs.Int("shards", 0, "split each dataset into N binary shard files plus a manifest (requires -format binary)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if obs.PrintVersionIf(*ver, stdout, "geogen") {
		return nil
	}
	var ext string
	switch *format {
	case "json":
		ext = trace.FormatJSON.Ext()
	case "binary":
		ext = trace.FormatBinary.Ext()
	default:
		return fmt.Errorf("unknown -format %q (json or binary)", *format)
	}
	if *gz {
		ext += ".gz"
	}
	if *shards < 0 {
		return fmt.Errorf("negative -shards %d", *shards)
	}
	if *shards > 0 && *format != "binary" {
		return fmt.Errorf("-shards writes binary shard files; pass -format binary")
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	root := rng.New(*seed)
	gen := func(cfg synth.Config) error {
		cfg.Parallelism = *workers
		ds, err := synth.Generate(cfg.Scale(*scale), root.Split(cfg.Name))
		if err != nil {
			return err
		}
		sum := ds.Summarize(nil)
		if *shards > 0 {
			manifest, err := ds.SaveShards(*outDir, trace.ShardOptions{Shards: *shards, Compress: *gz})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: %d users, %d checkins, %d GPS points -> %d shards, %s\n",
				cfg.Name, sum.Users, sum.Checkins, sum.GPSPoints, *shards, manifest)
			return nil
		}
		path := filepath.Join(*outDir, cfg.Name+ext)
		if err := ds.SaveFile(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %d users, %d checkins, %d GPS points -> %s\n",
			cfg.Name, sum.Users, sum.Checkins, sum.GPSPoints, path)
		return nil
	}
	switch *dataset {
	case "primary":
		return gen(synth.PrimaryConfig())
	case "baseline":
		return gen(synth.BaselineConfig())
	case "both":
		if err := gen(synth.PrimaryConfig()); err != nil {
			return err
		}
		return gen(synth.BaselineConfig())
	default:
		return fmt.Errorf("unknown -dataset %q (primary, baseline or both)", *dataset)
	}
}
