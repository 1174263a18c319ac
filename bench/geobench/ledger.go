package main

// The traced pass: per-layer metrics, measured from outside the program
// by timing calls into each layer's public functions.
//
//  1. Replay: the workload's input goes through the layer functions one
//     user at a time — NextFrame, Frame.UserID, DecodeFrame (then
//     RecycleUser, as the facade does), visits.Detect, core.MatchUser,
//     classify.ClassifyUser, outcome NewRecord/EncodeRecord/Writer.Write
//     and Close, a checkpoint fragment Begin/AddRecord/Commit per shard,
//     trace.FoldUser on every tenth user's last day, then outcome.Append
//     and outcome.Scan over the log — with a span around every call.
//  2. Allocation replay: the same input again, with runtime.MemStats
//     read around decode, detect and match (kept apart from the timed
//     replay so the readings do not distort it).
//  3. Facade: the workload's cold validation at one worker with and
//     without a span collector, and at every worker; the 8-shard versus
//     single-file fan-out on the full corpus.
//  4. Service: the service traffic with client spans and /metrics
//     deltas — the whole measured duration on the service workload, a
//     short probe on the others, so every traced run reports every layer.

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"geosocial"
	"geosocial/internal/checkpoint"
	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/obs"
	"geosocial/internal/outcome"
	"geosocial/internal/poi"
	"geosocial/internal/trace"
	"geosocial/internal/visits"
)

// probeSeconds caps the service traffic's length in the traced pass of
// a workload other than service.
const probeSeconds = 2

// facadeReps is the number of facade runs per configuration.
const facadeReps = 3

// replayInput is the workload's cold input and what its facade run does
// besides validating.
type replayInput struct {
	path      string // corpus file or shard-set directory
	log, ckpt bool
}

func replayInputFor(o options) replayInput {
	switch o.workload {
	case "cold-shards":
		return replayInput{filepath.Join(o.dir, "shards"), true, true}
	case "append-update":
		return replayInput{filepath.Join(o.dir, cutName(10), "base"), true, false}
	case "service":
		return replayInput{filepath.Join(o.dir, "service", "set"), true, false}
	}
	return replayInput{filepath.Join(o.dir, "corpus.bin"), false, false}
}

// source is one input stream of the replay.
type source struct {
	path string
	fs   trace.FrameSource
	rc   trace.UserRecycler
}

// openSources opens a corpus file or every shard of a shard set. The
// returned closer releases them all.
func openSources(path string) (string, *poi.DB, []source, func(), error) {
	var closers []func() error
	closeAll := func() {
		for _, c := range closers {
			c()
		}
	}
	if info, err := os.Stat(path); err == nil && !info.IsDir() {
		st, err := trace.OpenStream(path)
		if err != nil {
			return "", nil, nil, nil, err
		}
		closers = append(closers, st.Close)
		db, err := st.DB()
		if err != nil {
			closeAll()
			return "", nil, nil, nil, err
		}
		fs := st.Frames()
		rc, _ := fs.(trace.UserRecycler)
		return st.Name, db, []source{{path, fs, rc}}, closeAll, nil
	}
	ss, err := trace.OpenShardSet(path)
	if err != nil {
		return "", nil, nil, nil, err
	}
	var db *poi.DB
	var srcs []source
	for i, info := range ss.Manifest.Shards {
		r, err := ss.OpenShard(i)
		if err != nil {
			closeAll()
			return "", nil, nil, nil, err
		}
		closers = append(closers, r.Close)
		if db == nil {
			if db, err = poi.NewDB(r.POIs()); err != nil {
				closeAll()
				return "", nil, nil, nil, err
			}
		}
		srcs = append(srcs, source{filepath.Join(ss.Dir, info.File), r, r})
	}
	return ss.Manifest.Name, db, srcs, closeAll, nil
}

// replayCounts are the work counts the replay saw.
type replayCounts struct {
	users, shards         int
	gps, visits, checkins int
	honest                int
	logBytes, fragBytes   int64
}

// replay runs the input through the layer functions with a span around
// every call.
func replay(in replayInput, work string, rec *recorder) (replayCounts, error) {
	var c replayCounts
	name, db, srcs, closeAll, err := openSources(in.path)
	if err != nil {
		return c, err
	}
	defer closeAll()
	logPath := filepath.Join(work, "replay.gso")
	logw, err := outcome.Create(logPath, name)
	if err != nil {
		return c, err
	}
	defer logw.Discard()
	ckptDir := filepath.Join(work, "ckpt")
	store, err := checkpoint.Open(ckptDir, "replay", "replay")
	if err != nil {
		return c, err
	}
	vcfg, params, clsParams := visits.DefaultConfig(), core.DefaultParams(), classify.DefaultParams()
	var touched []*outcome.Record

	root := rec.begin("replay", 0)
	for _, src := range srcs {
		sh := rec.begin("shard", root)
		var sum string
		if err := rec.timed("checkpoint.checksum", sh, func() (err error) {
			sum, err = checkpoint.FileChecksum(src.path)
			return err
		}); err != nil {
			return c, err
		}
		frag, err := store.Begin(sum)
		if err != nil {
			return c, err
		}
		var ids []int
		var part core.Partition
		for {
			var fr trace.Frame
			err := rec.timed("trace.next_frame", sh, func() (err error) {
				fr, err = src.fs.NextFrame()
				return err
			})
			if err == io.EOF {
				break
			}
			if err != nil {
				frag.Abort()
				return c, err
			}
			var u *trace.User
			var vs []trace.Visit
			var mr *core.Result
			var cl *classify.Classification
			var r *outcome.Record
			var enc []byte
			steps := []struct {
				name string
				fn   func() error
			}{
				{"trace.id_peek", func() error { _, err := fr.UserID(); return err }},
				{"trace.decode", func() (err error) { u, err = src.fs.DecodeFrame(fr); return err }},
				{"visits.detect", func() (err error) { vs, err = visits.Detect(u.GPS, vcfg, db); return err }},
				{"core.match", func() (err error) { mr, err = core.MatchUser(u.Checkins, vs, params); return err }},
				{"classify.classify", func() (err error) {
					cl, err = classify.ClassifyUser(core.UserOutcome{User: u, Visits: vs, Match: mr}, clsParams)
					return err
				}},
				{"outcome.distill", func() (err error) {
					r, err = outcome.NewRecord(core.UserOutcome{User: u, Visits: vs, Match: mr}, cl)
					return err
				}},
				{"outcome.encode", func() (err error) { enc, err = outcome.EncodeRecord(r); return err }},
				{"outcome.write", func() error { return logw.Write(r) }},
				{"checkpoint.add", func() error { return frag.AddRecord(enc) }},
			}
			for _, st := range steps {
				if err := rec.timed(st.name, sh, st.fn); err != nil {
					frag.Abort()
					return c, fmt.Errorf("%s: %w", st.name, err)
				}
			}
			o := core.UserOutcome{User: u, Visits: vs, Match: mr}
			part.Add(o)
			c.gps += len(u.GPS)
			c.visits += len(vs)
			c.checkins += len(u.Checkins)
			c.honest += mr.Honest()
			if c.users%10 == 0 {
				// The t10 set: these users' records supersede theirs in
				// outcome.Append, and their last day is folded back on.
				touched = append(touched, r)
				cut := lastActivity(u) - day
				if b, a := slice(u, math.MinInt64, cut), slice(u, cut, math.MaxInt64); b != nil && a != nil {
					if err := rec.timed("trace.fold", sh, func() error {
						_, err := trace.FoldUser(b, []*trace.User{a})
						return err
					}); err != nil {
						frag.Abort()
						return c, err
					}
				}
			}
			ids = append(ids, u.ID)
			c.users++
			if src.rc != nil {
				src.rc.RecycleUser(u)
			}
		}
		if err := rec.timed("checkpoint.commit", sh, func() error {
			return frag.Commit(&checkpoint.Meta{Users: len(ids), Partition: part}, ids)
		}); err != nil {
			return c, err
		}
		c.shards++
		rec.end(sh)
	}
	if err := rec.timed("outcome.close", root, logw.Close); err != nil {
		return c, err
	}
	rec.end(root)

	if c.logBytes, err = fileSize(logPath); err != nil {
		return c, err
	}
	if c.fragBytes, err = dirSize(ckptDir); err != nil {
		return c, err
	}
	if err := rec.timed("outcome.append", 0, func() error {
		return outcome.Append(logPath, filepath.Join(work, "append.gso"), touched, nil)
	}); err != nil {
		return c, err
	}
	err = rec.timed("outcome.scan", 0, func() error {
		return outcome.Scan(logPath, func(*outcome.Record) error { return nil })
	})
	return c, err
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		st, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

// allocCounts are allocations per user by layer call.
type allocCounts struct {
	decode, decodeBytes, detect, match float64
}

// allocReplay decodes, segments and matches every user of the input
// with runtime.MemStats read around each call.
func allocReplay(in replayInput) (allocCounts, error) {
	var a allocCounts
	_, db, srcs, closeAll, err := openSources(in.path)
	if err != nil {
		return a, err
	}
	defer closeAll()
	vcfg, params := visits.DefaultConfig(), core.DefaultParams()
	var before, after runtime.MemStats
	users := 0
	for _, src := range srcs {
		for {
			fr, err := src.fs.NextFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				return a, err
			}
			runtime.ReadMemStats(&before)
			u, err := src.fs.DecodeFrame(fr)
			runtime.ReadMemStats(&after)
			if err != nil {
				return a, err
			}
			a.decode += float64(after.Mallocs - before.Mallocs)
			a.decodeBytes += float64(after.TotalAlloc - before.TotalAlloc)
			runtime.ReadMemStats(&before)
			vs, err := visits.Detect(u.GPS, vcfg, db)
			runtime.ReadMemStats(&after)
			if err != nil {
				return a, err
			}
			a.detect += float64(after.Mallocs - before.Mallocs)
			runtime.ReadMemStats(&before)
			_, err = core.MatchUser(u.Checkins, vs, params)
			runtime.ReadMemStats(&after)
			if err != nil {
				return a, err
			}
			a.match += float64(after.Mallocs - before.Mallocs)
			users++
			if src.rc != nil {
				src.rc.RecycleUser(u)
			}
		}
	}
	n := float64(max(users, 1))
	return allocCounts{a.decode / n, a.decodeBytes / n, a.detect / n, a.match / n}, nil
}

// facadeRuns holds the facade-level timings of the traced pass.
type facadeRuns struct {
	serial, spanned, parallel []float64 // seconds
	fileRuns, shardRuns       []float64
	stages                    map[string]time.Duration // collector stage totals
	runs, mismatches          int
}

// facade validates the workload's input as its timed pass does, with
// the given workers and span collector, and checks the result encoding
// against the first run's.
func (f *facadeRuns) facade(in replayInput, work string, workers int, spans *obs.Collector, ref *[]byte) (float64, error) {
	run := filepath.Join(work, "facade")
	if err := os.RemoveAll(run); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(run, 0o777); err != nil {
		return 0, err
	}
	opts := geosocial.StreamOptions{Workers: workers, Spans: spans}
	if in.log {
		opts.OutcomeLog = filepath.Join(run, "out.gso")
	}
	if in.ckpt {
		opts.CheckpointDir = filepath.Join(run, "ckpt")
	}
	t0 := time.Now()
	res, err := geosocial.ValidateFileOpts(in.path, opts)
	d := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	enc, err := res.Encode()
	if err != nil {
		return 0, err
	}
	f.runs++
	if *ref == nil {
		*ref = enc
	} else if string(enc) != string(*ref) {
		f.mismatches++
		fmt.Fprintf(os.Stderr, "geobench: facade result at %d workers (spans %v) differs from the first run\n", workers, spans != nil)
	}
	return d, nil
}

// facadeLedger runs the facade comparisons.
func facadeLedger(o options, in replayInput, work string) (*facadeRuns, error) {
	f := &facadeRuns{}
	var ref []byte
	for i := 0; i < facadeReps; i++ {
		// Alternate which side runs first so drift hits both equally.
		for _, withSpans := range []bool{i%2 == 0, i%2 != 0} {
			var col *obs.Collector
			if withSpans {
				col = obs.NewCollector()
			}
			d, err := f.facade(in, work, 1, col, &ref)
			if err != nil {
				return nil, err
			}
			if withSpans {
				f.spanned = append(f.spanned, d)
				f.stages = map[string]time.Duration{}
				for _, st := range col.Report().Stages {
					f.stages[st.Stage] = st.Elapsed
				}
			} else {
				f.serial = append(f.serial, d)
			}
		}
		d, err := f.facade(in, work, o.workers, nil, &ref)
		if err != nil {
			return nil, err
		}
		f.parallel = append(f.parallel, d)
	}

	// Shard fan-out: the full corpus as 8 uncompressed shards versus the
	// single file, no outcome log.
	corpus := filepath.Join(o.dir, "corpus.bin")
	fanout := filepath.Join(work, "fanout")
	if err := writeShards(corpus, fanout, shardCount); err != nil {
		return nil, err
	}
	var fileRef, shardRef []byte
	for i := 0; i < facadeReps; i++ {
		for _, shards := range []bool{i%2 == 0, i%2 != 0} {
			path, ref := corpus, &fileRef
			if shards {
				path, ref = fanout, &shardRef
			}
			d, err := f.facade(replayInput{path: path}, work, o.workers, nil, ref)
			if err != nil {
				return nil, err
			}
			if shards {
				f.shardRuns = append(f.shardRuns, d)
			} else {
				f.fileRuns = append(f.fileRuns, d)
			}
		}
	}
	return f, nil
}

// writeShards streams a corpus file into an uncompressed shard set.
func writeShards(corpus, dir string, shards int) error {
	st, err := trace.OpenStream(corpus)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	w, err := trace.NewShardWriter(dir, st.Name, st.POIs, trace.ShardOptions{Shards: shards})
	if err != nil {
		return err
	}
	for {
		u, err := st.Next()
		if err == io.EOF {
			return w.Close()
		}
		if err != nil {
			return err
		}
		if err := w.WriteUser(u); err != nil {
			return err
		}
	}
}

// traced runs the traced pass and derives every per-layer metric.
func traced(o options) (report, error) {
	rec := newRecorder()
	in := replayInputFor(o)
	work := filepath.Join(o.dir, "trace")
	if err := os.MkdirAll(work, 0o777); err != nil {
		return report{}, err
	}
	c, err := replay(in, work, rec)
	if err != nil {
		return report{}, fmt.Errorf("replay: %w", err)
	}
	lt := rec.selfTimes()
	allocs, err := allocReplay(in)
	if err != nil {
		return report{}, fmt.Errorf("allocation replay: %w", err)
	}
	fac, err := facadeLedger(o, in, work)
	if err != nil {
		return report{}, fmt.Errorf("facade: %w", err)
	}

	probe := min(probeSeconds*time.Second, o.duration())
	if o.workload == "service" {
		probe = o.duration()
	}
	s, err := startService(filepath.Join(o.dir, "service"), o.workers, rec)
	if err != nil {
		return report{}, fmt.Errorf("service: %w", err)
	}
	w, r, delta, err := s.traffic(probe, 0)
	s.close()
	if err != nil {
		return report{}, fmt.Errorf("service: %w", err)
	}
	if o.spans != "" {
		if err := rec.writeFile(o.spans); err != nil {
			return report{}, err
		}
	}

	users := float64(max(c.users, 1))
	perUser := func(name string) float64 { return lt[name].Self.Seconds() * 1e6 / users }
	perCall := func(name string) float64 {
		return lt[name].Self.Seconds() * 1e6 / float64(max(lt[name].Calls, 1))
	}
	// The replay stages the workload's own facade run also executes:
	// their self times should add up to its one-worker wall time.
	stages := []string{"trace.next_frame", "trace.decode", "visits.detect", "core.match", "classify.classify"}
	if in.log {
		stages = append(stages, "outcome.distill", "outcome.write", "outcome.close")
	}
	if in.ckpt {
		stages = append(stages, "checkpoint.checksum", "outcome.encode", "checkpoint.add", "checkpoint.commit")
	}
	var replaySum time.Duration
	for _, st := range stages {
		replaySum += lt[st].Self
	}
	// Stages both views name: the collector's decode/segment/match/classify
	// cells against the replay's spans around the same calls.
	replayCommon := lt["trace.decode"].Self + lt["visits.detect"].Self + lt["core.match"].Self + lt["classify.classify"].Self
	collCommon := fac.stages["decode"] + fac.stages["segment"] + fac.stages["match"] + fac.stages["classify"]
	serial := median(fac.serial)

	m := map[string]metric{
		"trace.next_frame_us_per_user":       {perUser("trace.next_frame"), "us"},
		"trace.decode_us_per_user":           {perUser("trace.decode"), "us"},
		"trace.decode_allocs_per_user":       {allocs.decode, "count"},
		"trace.decode_bytes_per_user":        {allocs.decodeBytes, "bytes"},
		"trace.id_peek_us_per_frame":         {perUser("trace.id_peek"), "us"},
		"trace.fold_us_per_touched_user":     {perCall("trace.fold"), "us"},
		"visits.segment_us_per_user":         {perUser("visits.detect"), "us"},
		"visits.segment_allocs_per_user":     {allocs.detect, "count"},
		"visits.gps_points_per_user":         {float64(c.gps) / users, "count"},
		"visits.visits_per_user":             {float64(c.visits) / users, "count"},
		"core.match_us_per_user":             {perUser("core.match"), "us"},
		"core.match_allocs_per_user":         {allocs.match, "count"},
		"core.honest_share":                  {ratio(float64(c.honest), float64(c.checkins)), "ratio"},
		"classify.classify_us_per_user":      {perUser("classify.classify"), "us"},
		"outcome.distill_us_per_user":        {perUser("outcome.distill"), "us"},
		"outcome.encode_us_per_user":         {perUser("outcome.encode"), "us"},
		"outcome.write_us_per_user":          {perUser("outcome.write"), "us"},
		"outcome.close_ms":                   {lt["outcome.close"].Self.Seconds() * 1e3, "ms"},
		"outcome.log_bytes_per_user":         {float64(c.logBytes) / users, "bytes"},
		"outcome.append_ms.t10":              {lt["outcome.append"].Self.Seconds() * 1e3, "ms"},
		"outcome.scan_us_per_user":           {perUser("outcome.scan"), "us"},
		"checkpoint.commit_ms_per_shard":     {perCall("checkpoint.commit") / 1e3, "ms"},
		"checkpoint.fragment_bytes_per_user": {float64(c.fragBytes) / users, "bytes"},
		"par.unattributed_share":             {1 - replaySum.Seconds()/serial, "ratio"},
		"par.parallel_speedup":               {serial / median(fac.parallel), "ratio"},
		"par.shard_fanout_share":             {1 - median(fac.fileRuns)/median(fac.shardRuns), "ratio"},
		"obs.spans_overhead_share":           {median(fac.spanned)/serial - 1, "ratio"},
		"obs.reconcile_gap_share":            {math.Abs(collCommon.Seconds()-replayCommon.Seconds()) / replayCommon.Seconds(), "ratio"},
	}
	for k, v := range serveLayers(w, r, delta) {
		m[k] = v
	}
	attempted := c.users + fac.runs + w.attempted + r.attempted
	failed := fac.mismatches + w.failed + r.failed
	return report{
		Result: result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m},
		Info: []info{
			{"replay_users", float64(c.users), "count"},
			{"replay_shards", float64(c.shards), "count"},
			{"facade_serial_s", serial, "s"},
			{"replay_stage_sum_s", replaySum.Seconds(), "s"},
		},
	}, nil
}
