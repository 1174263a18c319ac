package main

// Set-up: every workload's inputs and reference outputs are generated
// from the seed into a fresh work directory, so set-up cost is measured
// from scratch on every repetition. Layout of a prepared directory:
//
//	corpus.bin                  every user, one uncompressed GSB1 file
//	file.json                   cold reference result of corpus.bin
//	shards/                     8 gzip shards + manifest          (cold-shards)
//	shards.json, shards.gso     cold reference result and outcome log
//	cutNN/base/                 4 uncompressed base shards         (append-update)
//	cutNN/delta.gsb             the users' cut-off last days
//	cutNN/base.json, base.gso   cold result and log of the base
//	cutNN/grown.json, .gso      cold result and log of base + delta
//	service/set/                2-shard set the service starts from
//	service/delta-NN.gsb        one-day deltas appended to that set
//	service/win-NNNN.json       reference partitions of checked uploads

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"geosocial"
	"geosocial/internal/core"
	"geosocial/internal/poi"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

const (
	shardCount    = 8 // cold-shards: gzip shards behind one manifest
	appendShards  = 4 // append-update: uncompressed base shards
	serviceShards = 2 // service: shards of the registered set
	serviceUsers  = 240
	serviceDeltas = 50 // one-day deltas cut after the service set's cut point
	windowUsers   = 60 // users per uploaded window
	refEvery      = 10 // every refEvery-th upload is checked against a reference
	refWindows    = 10 // references exist for the first refWindows checked uploads
	day           = int64(86400)
)

// cutPercents are the append-update touched fractions, in percent.
var cutPercents = []int{1, 10, 50}

// generate builds the seeded corpus.
func generate(seed uint64, scale float64, workers int) (*trace.Dataset, error) {
	cfg := synth.PrimaryConfig().Scale(scale)
	cfg.Parallelism = workers
	return synth.Generate(cfg, rng.New(seed))
}

// prepare generates the corpus and writes every input and reference the
// workload needs into dir.
func prepare(o options, dir string) error {
	ds, err := generate(o.seed, o.scale, o.workers)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	if err := ds.SaveFile(filepath.Join(dir, "corpus.bin")); err != nil {
		return err
	}
	// Every traced pass runs service traffic, so it needs the set too.
	if o.workload == "service" || o.trace {
		if err := prepareServiceSet(ds, filepath.Join(dir, "service")); err != nil {
			return err
		}
	}
	switch o.workload {
	case "cold-file":
		_, err = reference(filepath.Join(dir, "corpus.bin"), filepath.Join(dir, "file"), false, o.workers)
	case "cold-shards":
		err = prepareColdShards(ds, dir, o.workers)
	case "append-update":
		for _, pct := range cutPercents {
			if err = prepareCut(ds, filepath.Join(dir, cutName(pct)), pct, o.workers); err != nil {
				break
			}
		}
	case "service":
		err = prepareWindowRefs(filepath.Join(dir, "corpus.bin"), filepath.Join(dir, "service"), o.workers)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	return err
}

func cutName(pct int) string { return fmt.Sprintf("cut%02d", pct) }

// reference validates input once and stores the result encoding at
// prefix.json (and the outcome log at prefix.gso when withLog is set).
func reference(input, prefix string, withLog bool, workers int) (*core.StreamResult, error) {
	opts := geosocial.StreamOptions{Workers: workers}
	if withLog {
		opts.OutcomeLog = prefix + ".gso"
	}
	res, err := geosocial.ValidateFileOpts(input, opts)
	if err != nil {
		return nil, err
	}
	enc, err := res.Encode()
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(prefix+".json", enc, 0o666)
}

// prepareColdShards writes the gzip shard set and its references. The
// shard set's partition and taxonomy must equal the single file's.
func prepareColdShards(ds *trace.Dataset, dir string, workers int) error {
	fileRes, err := reference(filepath.Join(dir, "corpus.bin"), filepath.Join(dir, "file"), false, workers)
	if err != nil {
		return err
	}
	sdir := filepath.Join(dir, "shards")
	if err := os.MkdirAll(sdir, 0o777); err != nil {
		return err
	}
	manifest, err := ds.SaveShards(sdir, trace.ShardOptions{Shards: shardCount, Compress: true})
	if err != nil {
		return err
	}
	res, err := reference(manifest, filepath.Join(dir, "shards"), true, workers)
	if err != nil {
		return err
	}
	return sameAggregates(fileRes, res)
}

// sameAggregates checks that two validations of the same users agree on
// the partition and the taxonomy.
func sameAggregates(a, b *core.StreamResult) error {
	if a.Partition != b.Partition {
		return fmt.Errorf("partition %+v != %+v", a.Partition, b.Partition)
	}
	if len(a.Taxonomy) != len(b.Taxonomy) {
		return fmt.Errorf("taxonomy %v != %v", a.Taxonomy, b.Taxonomy)
	}
	for k, v := range a.Taxonomy {
		if b.Taxonomy[k] != v {
			return fmt.Errorf("taxonomy %v != %v", a.Taxonomy, b.Taxonomy)
		}
	}
	return nil
}

// lastActivity is the time of the user's last GPS fix or checkin.
func lastActivity(u *trace.User) int64 {
	t := int64(math.MinInt64)
	if n := len(u.GPS); n > 0 {
		t = u.GPS[n-1].T
	}
	if n := len(u.Checkins); n > 0 && u.Checkins[n-1].T > t {
		t = u.Checkins[n-1].T
	}
	return t
}

// slice returns the part of u's traces in [from, to), or nil if empty.
func slice(u *trace.User, from, to int64) *trace.User {
	gi := sort.Search(len(u.GPS), func(i int) bool { return u.GPS[i].T >= from })
	gj := sort.Search(len(u.GPS), func(i int) bool { return u.GPS[i].T >= to })
	ci := sort.Search(len(u.Checkins), func(i int) bool { return u.Checkins[i].T >= from })
	cj := sort.Search(len(u.Checkins), func(i int) bool { return u.Checkins[i].T >= to })
	if gi == gj && ci == cj {
		return nil
	}
	return &trace.User{ID: u.ID, Profile: u.Profile, Days: u.Days, GPS: u.GPS[gi:gj], Checkins: u.Checkins[ci:cj]}
}

// writeStream writes users as one GSB1 stream to path.
func writeStream(path, name string, pois []poi.POI, users []*trace.User) error {
	var buf bytes.Buffer
	if err := encodeStream(&buf, name, pois, users); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o666)
}

func encodeStream(w io.Writer, name string, pois []poi.POI, users []*trace.User) error {
	sw, err := trace.NewStreamWriter(w, name, pois)
	if err != nil {
		return err
	}
	for _, u := range users {
		if err := sw.WriteUser(u); err != nil {
			return err
		}
	}
	return sw.Close()
}

// prepareCut writes one append-update cut: every (100/pct)-th user by
// index loses its last day to the delta stream. It records the base's
// cold result and log, then applies the delta to a copy of the base and
// records the grown corpus's cold result and log — the references every
// incremental update is compared against.
func prepareCut(ds *trace.Dataset, dir string, pct, workers int) error {
	stride := 100 / pct
	base := &trace.Dataset{Name: ds.Name, POIs: ds.POIs}
	var delta []*trace.User
	for i, u := range ds.Users {
		if i%stride != 0 {
			base.Users = append(base.Users, u)
			continue
		}
		cut := lastActivity(u) - day
		if b := slice(u, math.MinInt64, cut); b != nil {
			base.Users = append(base.Users, b)
		}
		delta = append(delta, slice(u, cut, math.MaxInt64))
	}
	bdir := filepath.Join(dir, "base")
	if err := os.MkdirAll(bdir, 0o777); err != nil {
		return err
	}
	manifest, err := base.SaveShards(bdir, trace.ShardOptions{Shards: appendShards})
	if err != nil {
		return err
	}
	deltaPath := filepath.Join(dir, "delta.gsb")
	if err := writeStream(deltaPath, ds.Name, ds.POIs, delta); err != nil {
		return err
	}
	if _, err := reference(manifest, filepath.Join(dir, "base"), true, workers); err != nil {
		return err
	}
	gdir := filepath.Join(dir, "grown")
	grown, err := restoreBase(bdir, gdir)
	if err != nil {
		return err
	}
	if err := applyDelta(grown, deltaPath); err != nil {
		return err
	}
	if _, err := reference(grown, filepath.Join(dir, "grown"), true, workers); err != nil {
		return err
	}
	return os.RemoveAll(gdir)
}

// restoreBase recreates dst as a copy of the base shard set in src and
// returns its manifest path. Shard files are hard-linked — an append
// never rewrites them — and the manifest, which an append replaces, is
// copied.
func restoreBase(src, dst string) (string, error) {
	if err := os.RemoveAll(dst); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dst, 0o777); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return "", err
	}
	manifest := ""
	for _, e := range entries {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if filepath.Ext(e.Name()) == ".json" {
			data, err := os.ReadFile(from)
			if err != nil {
				return "", err
			}
			if err := os.WriteFile(to, data, 0o666); err != nil {
				return "", err
			}
			manifest = to
			continue
		}
		if err := os.Link(from, to); err != nil {
			return "", err
		}
	}
	if manifest == "" {
		return "", fmt.Errorf("no manifest in %s", src)
	}
	return manifest, nil
}

// applyDelta appends the delta stream at deltaPath to the shard set as
// one generation.
func applyDelta(manifest, deltaPath string) error {
	f, err := os.Open(deltaPath)
	if err != nil {
		return err
	}
	defer f.Close()
	aw, err := trace.OpenAppend(manifest)
	if err != nil {
		return err
	}
	if err := aw.AppendStream(f); err != nil {
		return err
	}
	return aw.Close()
}

// prepareServiceSet writes the service's starting shard set — the first
// serviceUsers users cut serviceDeltas days before their last activity —
// and the one-day deltas that grow it afterwards.
func prepareServiceSet(ds *trace.Dataset, dir string) error {
	users := ds.Users[:min(serviceUsers, len(ds.Users))]
	end := int64(math.MinInt64)
	for _, u := range users {
		end = max(end, lastActivity(u))
	}
	cut := end - serviceDeltas*day
	base := &trace.Dataset{Name: ds.Name, POIs: ds.POIs}
	for _, u := range users {
		if b := slice(u, math.MinInt64, cut); b != nil {
			base.Users = append(base.Users, b)
		}
	}
	if len(base.Users) == 0 {
		return fmt.Errorf("service set: no user is active before the cut")
	}
	sdir := filepath.Join(dir, "set")
	if err := os.MkdirAll(sdir, 0o777); err != nil {
		return err
	}
	if _, err := base.SaveShards(sdir, trace.ShardOptions{Shards: serviceShards}); err != nil {
		return err
	}
	n := 0
	for k := int64(0); k < serviceDeltas; k++ {
		from, to := cut+k*day, cut+(k+1)*day
		if k == serviceDeltas-1 {
			to = math.MaxInt64
		}
		var delta []*trace.User
		for _, u := range users {
			if d := slice(u, from, to); d != nil {
				delta = append(delta, d)
			}
		}
		if len(delta) == 0 {
			continue
		}
		if err := writeStream(filepath.Join(dir, fmt.Sprintf("delta-%02d.gsb", n)), ds.Name, ds.POIs, delta); err != nil {
			return err
		}
		n++
	}
	return nil
}

// windowLen is the number of users in upload i from a corpus of n users.
func windowLen(n, i int) int { return max(1, min(windowUsers, n/2)-i/n) }

// window encodes upload i of a corpus of n users (the corpus file's
// bytes) as a standalone GSB1 dataset. Upload i holds the users
// [i mod n, i mod n + size) with wrap-around; each pass over the corpus
// shrinks size by one, so no two uploads carry the same bytes (and none
// is answered from the service's cache) until the size reaches one.
func window(corpus []byte, n, i int) ([]byte, error) {
	start, size := i%n, windowLen(n, i)
	sr, err := trace.NewStreamReaderBytes(corpus)
	if err != nil {
		return nil, err
	}
	users := make([]*trace.User, 0, size)
	for idx := 0; idx < n; idx++ {
		f, err := sr.NextFrame()
		if err != nil {
			return nil, err
		}
		if (idx-start+n)%n >= size {
			sr.Recycle(f)
			continue
		}
		u, err := sr.DecodeFrame(f)
		if err != nil {
			return nil, err
		}
		users = append(users, u)
	}
	var buf bytes.Buffer
	if err := encodeStream(&buf, sr.Name(), sr.POIs(), users); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// prepareWindowRefs validates the windows of the checked uploads through
// the facade and stores their partitions, encoded as the service encodes
// them.
func prepareWindowRefs(corpusPath, dir string, workers int) error {
	corpus, err := os.ReadFile(corpusPath)
	if err != nil {
		return err
	}
	n, err := corpusUsers(corpus)
	if err != nil {
		return err
	}
	for k := 0; k < refWindows; k++ {
		i := k * refEvery
		body, err := window(corpus, n, i)
		if err != nil {
			return err
		}
		tmp := filepath.Join(dir, "window.bin")
		if err := os.WriteFile(tmp, body, 0o666); err != nil {
			return err
		}
		res, err := geosocial.ValidateFileOpts(tmp, geosocial.StreamOptions{Workers: workers})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := core.WriteIndentedJSON(&buf, res.Partition); err != nil {
			return err
		}
		if err := os.WriteFile(windowRefPath(dir, i), buf.Bytes(), 0o666); err != nil {
			return err
		}
		if err := os.Remove(tmp); err != nil {
			return err
		}
	}
	return nil
}

func windowRefPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("win-%04d.json", i))
}

// corpusUsers counts the user frames of a GSB1 file's bytes.
func corpusUsers(corpus []byte) (int, error) {
	sr, err := trace.NewStreamReaderBytes(corpus)
	if err != nil {
		return 0, err
	}
	for {
		f, err := sr.NextFrame()
		if err == io.EOF {
			return sr.Users(), nil
		}
		if err != nil {
			return 0, err
		}
		sr.Recycle(f)
	}
}
