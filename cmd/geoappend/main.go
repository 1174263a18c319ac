// Command geoappend drives the append-only ingest container: it cuts a
// saved dataset into a base shard set plus a delta stream (split mode)
// and grows a shard set by appending a delta stream to it as one new
// generation (apply mode). Together with geovalidate -update-from it
// exercises the full live-ingest loop offline: split a corpus, validate
// the base, apply the delta, update incrementally, and compare against
// a cold validation of the grown set — the results are byte-identical.
//
// Usage:
//
//	geoappend -split primary.bin.gz -out ./corpus            # base shards + delta
//	geoappend -split primary.bin.gz -out ./corpus -shards 4 -cut-days 2
//	geoappend -in ./corpus/primary.manifest.json -delta ./corpus/delta.gsb
//
// Split mode cuts every user's traces at a single point in time —
// -cut-days days before the corpus's last activity — and writes the
// earlier parts as a -shards shard set under -out and the later parts
// as a GSB1 delta stream (-delta, default "<out>/delta.gsb"). A user
// whose activity lies entirely after the cut is withheld from the base
// and arrives brand-new in the delta, so the stream exercises both the
// grown-user and the new-user append paths.
//
// Apply mode (-in with -delta) appends the delta stream onto the shard
// set's manifest as one new generation: the delta users land in a new
// shard file, the manifest records its generation and checksum, and
// nothing already on disk is rewritten. The same wire format drives
// the service's POST /v1/datasets/{id}/append endpoint.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"

	"geosocial/internal/atomicfile"
	"geosocial/internal/obs"
	"geosocial/internal/trace"
)

// errUsage signals a flag-parse failure the flag package has already
// reported to stderr; main exits 2 without printing it again.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("geoappend: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run executes the tool against args, writing its report to stdout and
// log lines (gated by -log-level / -quiet) to stderr. It is the whole
// tool minus process concerns, so tests can drive it directly.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("geoappend", flag.ContinueOnError)
	obsFlags := obs.RegisterCLIFlags(fs, "geoappend")
	var (
		split   = fs.String("split", "", "dataset to cut into a base shard set plus a delta stream")
		out     = fs.String("out", "", "output directory for the split shard set (required with -split)")
		shards  = fs.Int("shards", 2, "shard count for the split base set")
		cutDays = fs.Float64("cut-days", 1, "cut point: this many days before the corpus's last activity")
		delta   = fs.String("delta", "", "delta stream path: written by -split (default <out>/delta.gsb), appended by -in")
		in      = fs.String("in", "", "shard-set manifest (or its directory) to append -delta onto")
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
	switch {
	case *split != "" && *in != "":
		return fmt.Errorf("-split and -in are mutually exclusive")
	case *split != "":
		if *out == "" {
			return fmt.Errorf("-split requires -out (directory for the base shard set)")
		}
		path := *delta
		if path == "" {
			path = filepath.Join(*out, "delta.gsb")
		}
		logger.Debugf("split mode: src=%s out=%s shards=%d cut-days=%v", *split, *out, *shards, *cutDays)
		return runSplit(*split, *out, path, *shards, *cutDays, stdout)
	case *in != "":
		if *delta == "" {
			return fmt.Errorf("-in requires -delta (the stream to append)")
		}
		logger.Debugf("apply mode: manifest=%s delta=%s", *in, *delta)
		return runApply(*in, *delta, stdout)
	default:
		return fmt.Errorf("one of -split or -in is required")
	}
}

// runSplit cuts the dataset at cutDays before its last activity and
// writes the base shard set plus the delta stream.
func runSplit(src, outDir, deltaPath string, shards int, cutDays float64, stdout io.Writer) error {
	full, err := trace.LoadFile(src)
	if err != nil {
		return err
	}
	maxT := int64(math.MinInt64)
	for _, u := range full.Users {
		if n := len(u.GPS); n > 0 && u.GPS[n-1].T > maxT {
			maxT = u.GPS[n-1].T
		}
		if n := len(u.Checkins); n > 0 && u.Checkins[n-1].T > maxT {
			maxT = u.Checkins[n-1].T
		}
	}
	if maxT == math.MinInt64 {
		return fmt.Errorf("split %s: corpus has no activity to cut", src)
	}
	cutT := maxT - int64(cutDays*86400)

	base := &trace.Dataset{Name: full.Name, POIs: full.POIs}
	var deltas []*trace.User
	for _, u := range full.Users {
		before, after := cutUserAt(u, cutT)
		if before != nil {
			base.Users = append(base.Users, before)
		}
		if after != nil {
			deltas = append(deltas, after)
		}
	}
	if len(base.Users) == 0 || len(deltas) == 0 {
		return fmt.Errorf("split %s: cut %v days leaves %d base users and %d delta users; pick a cut inside the corpus timeline",
			src, cutDays, len(base.Users), len(deltas))
	}
	if err := os.MkdirAll(outDir, 0o777); err != nil {
		return err
	}
	manifest, err := base.SaveShards(outDir, trace.ShardOptions{Shards: shards})
	if err != nil {
		return err
	}
	f, err := atomicfile.Create(filepath.Dir(deltaPath), 0o666)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := (&trace.Dataset{Name: full.Name, POIs: full.POIs, Users: deltas}).WriteBinary(f); err != nil {
		return err
	}
	if err := f.Commit(deltaPath); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "split %q: %d base users in %d shards (%s), %d delta users (%s)\n",
		full.Name, len(base.Users), shards, manifest, len(deltas), deltaPath)
	return nil
}

// runApply appends the delta stream onto the shard set as one new
// generation.
func runApply(manifest, deltaPath string, stdout io.Writer) error {
	f, err := os.Open(deltaPath)
	if err != nil {
		return err
	}
	defer f.Close()
	aw, err := trace.OpenAppend(manifest)
	if err != nil {
		return err
	}
	gen := aw.Generation()
	if err := aw.AppendStream(f); err != nil {
		return err
	}
	if err := aw.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "appended %s as generation %d of %q (%s)\n",
		deltaPath, gen, aw.Name(), aw.ManifestPath())
	return nil
}

// cutUserAt splits one user's traces at cutT: everything strictly
// before stays in the first part, the rest becomes the second. A user
// with no activity at or after cutT is untouched (nil second part); one
// with nothing before has a nil first part.
func cutUserAt(u *trace.User, cutT int64) (before, after *trace.User) {
	gi := sort.Search(len(u.GPS), func(i int) bool { return u.GPS[i].T >= cutT })
	ci := sort.Search(len(u.Checkins), func(i int) bool { return u.Checkins[i].T >= cutT })
	if gi == len(u.GPS) && ci == len(u.Checkins) {
		return u, nil
	}
	if gi == 0 && ci == 0 {
		return nil, u
	}
	before = &trace.User{ID: u.ID, Profile: u.Profile, Days: u.Days, GPS: u.GPS[:gi], Checkins: u.Checkins[:ci]}
	after = &trace.User{ID: u.ID, Profile: u.Profile, Days: u.Days, GPS: u.GPS[gi:], Checkins: u.Checkins[ci:]}
	return before, after
}
