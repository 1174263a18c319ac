// Command geoexp regenerates the paper's tables and figures: it generates
// a synthetic study at the requested scale (geosocial.GenerateStudy),
// runs the selected experiments on it (Study.RunExperiment, which
// validates each cohort once on the validation engine) and prints each
// report (measured rows/series plus the paper's published values for
// comparison).
//
// Usage:
//
//	geoexp -scale 0.25 -exp fig1
//	geoexp -scale 1.0 -exp all        # the full paper, full population
//	geoexp -scale 1.0 -workers 8      # build the study on 8 workers
//	geoexp -list
//
// The -workers flag controls per-user pipeline parallelism for
// generation and validation (0 = all cores); reports are identical for
// any worker count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"geosocial"
	"geosocial/internal/obs"
)

// errUsage signals a flag-parse failure the flag package has already
// reported to stderr; main exits 2 without printing it again.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("geoexp: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run executes the tool against args, writing reports to stdout. It is
// the whole tool minus process concerns, so tests can drive it directly.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("geoexp", flag.ContinueOnError)
	ver := obs.RegisterVersionFlag(fs)
	var (
		scale   = fs.Float64("scale", 0.25, "population scale relative to the paper's study")
		seed    = fs.Uint64("seed", 42, "root RNG seed")
		exp     = fs.String("exp", "all", "experiment ID or comma list (see -list)")
		list    = fs.Bool("list", false, "list experiment IDs and exit")
		workers = fs.Int("workers", 0, "per-user pipeline workers (0 = all cores, 1 = serial; reports are identical)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if obs.PrintVersionIf(*ver, stdout, "geoexp") {
		return nil
	}

	if *list {
		for _, id := range geosocial.Experiments() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}

	// GenerateStudy reads scale 0 as the full study; here it is a typo.
	if *scale <= 0 {
		return fmt.Errorf("scale must be positive, got %g", *scale)
	}
	start := time.Now()
	study, err := geosocial.GenerateStudy(geosocial.StudyConfig{Scale: *scale, Seed: *seed, Parallelism: *workers})
	if err != nil {
		return err
	}
	// The primary cohort is nearly all of the validation work; the
	// baseline is validated when the first experiment reads it.
	if _, err := study.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "study generated and validated at scale %.2f (seed %d) in %v\n\n",
		*scale, *seed, time.Since(start).Round(time.Millisecond))

	ids := geosocial.Experiments()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		if err := study.RunExperiment(strings.TrimSpace(id), stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
