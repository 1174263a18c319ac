package main

// The untraced, timed passes: closed loops of one operation each, after
// one untimed warm-up iteration, for the measured duration. Every
// operation's output is checked against a reference made at set-up; a
// failed check counts the operation as failed.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"geosocial"
	"geosocial/internal/core"
)

// op runs one operation and returns the users its result covers and the
// time that counts as the operation's latency (untimed preparation and
// checks are excluded).
type op func() (users int, d time.Duration, err error)

// loop accumulates the operations of one timed pass.
type loop struct {
	lats      []float64 // seconds, successful operations only
	users     int
	attempted int
	failed    int
}

func (l *loop) record(users int, d time.Duration, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if l.failed <= 3 {
			fmt.Fprintf(os.Stderr, "geobench: operation failed: %v\n", err)
		}
		return
	}
	l.lats = append(l.lats, d.Seconds())
	l.users += users
}

// measure warms up with one operation, then runs op back to back until
// the measured duration has passed.
func measure(o options, run op) *loop {
	l := &loop{}
	if _, _, err := run(); err != nil {
		l.record(0, 0, fmt.Errorf("warm-up: %w", err))
	}
	deadline := time.Now().Add(o.duration())
	for time.Now().Before(deadline) {
		l.record(run())
	}
	return l
}

// report turns the loop into the end-to-end metrics.
func (l *loop) report(prep time.Duration, extra ...info) report {
	return report{
		Result: result{
			Correct:   l.failed == 0,
			Attempted: l.attempted,
			Failed:    l.failed,
			Metrics: map[string]metric{
				"op_s_p50":    {quantile(l.lats, 0.50), "s"},
				"op_s_p75":    {quantile(l.lats, 0.75), "s"},
				"users_per_s": {float64(l.users) / sum(l.lats), "users/s"},
				"peak_rss_mb": {peakRSSMB(), "MB"},
			},
		},
		PrepS: prep.Seconds(),
		Info:  append([]info{{"ops", float64(len(l.lats)), "count"}}, extra...),
	}
}

// sameEncoding checks a result's encoding against reference bytes.
func sameEncoding(res *core.StreamResult, want []byte, what string) error {
	got, err := res.Encode()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s differs from its reference", what)
	}
	return nil
}

// sameFile checks a file's bytes against reference bytes.
func sameFile(path string, want []byte, what string) error {
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s differs from its reference", what)
	}
	return nil
}

// coldFile: the pure compute path — mmap decode, segment, match,
// classify — over one uncompressed file, with no outcome log.
func coldFile(o options) (report, error) {
	t0 := time.Now()
	ref, err := os.ReadFile(filepath.Join(o.dir, "file.json"))
	if err != nil {
		return report{}, err
	}
	input := filepath.Join(o.dir, "corpus.bin")
	prep := time.Since(t0)
	l := measure(o, func() (int, time.Duration, error) {
		t0 := time.Now()
		res, err := geosocial.ValidateFileOpts(input, geosocial.StreamOptions{Workers: o.workers})
		d := time.Since(t0)
		if err != nil {
			return 0, d, err
		}
		return res.Users, d, sameEncoding(res, ref, "cold-file result")
	})
	return l.report(prep), nil
}

// coldShards: the durable production path — gzip shards fetched
// concurrently, an outcome log re-sequenced at close, and a checkpoint
// fragment committed per shard into a fresh directory every run.
func coldShards(o options) (report, error) {
	t0 := time.Now()
	ref, err := os.ReadFile(filepath.Join(o.dir, "shards.json"))
	if err != nil {
		return report{}, err
	}
	refLog, err := os.ReadFile(filepath.Join(o.dir, "shards.gso"))
	if err != nil {
		return report{}, err
	}
	input := filepath.Join(o.dir, "shards")
	work := filepath.Join(o.dir, "run")
	logPath := filepath.Join(work, "out.gso")
	prep := time.Since(t0)
	l := measure(o, func() (int, time.Duration, error) {
		if err := os.RemoveAll(work); err != nil {
			return 0, 0, err
		}
		if err := os.MkdirAll(work, 0o777); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		res, err := geosocial.ValidateFileOpts(input, geosocial.StreamOptions{
			Workers:       o.workers,
			OutcomeLog:    logPath,
			CheckpointDir: filepath.Join(work, "ckpt"),
		})
		d := time.Since(t0)
		if err != nil {
			return 0, d, err
		}
		if err := sameEncoding(res, ref, "cold-shards result"); err != nil {
			return 0, d, err
		}
		return res.Users, d, sameFile(logPath, refLog, "cold-shards outcome log")
	})
	return l.report(prep), nil
}

// cut is one append-update touched fraction with its references.
type cut struct {
	pct      int
	base     string // pristine base shard set
	delta    string // delta stream
	prev     *core.StreamResult
	prevLog  string
	grown    []byte // cold result of the grown corpus
	grownLog []byte // its outcome log
}

func loadCut(dir string, pct int) (*cut, error) {
	cdir := filepath.Join(dir, cutName(pct))
	c := &cut{
		pct:     pct,
		base:    filepath.Join(cdir, "base"),
		delta:   filepath.Join(cdir, "delta.gsb"),
		prevLog: filepath.Join(cdir, "base.gso"),
	}
	data, err := os.ReadFile(filepath.Join(cdir, "base.json"))
	if err != nil {
		return nil, err
	}
	if c.prev, err = core.DecodeStreamResult(data); err != nil {
		return nil, err
	}
	if c.grown, err = os.ReadFile(filepath.Join(cdir, "grown.json")); err != nil {
		return nil, err
	}
	if c.grownLog, err = os.ReadFile(filepath.Join(cdir, "grown.gso")); err != nil {
		return nil, err
	}
	return c, nil
}

// appendUpdate: round-robin over the three cuts, each iteration
// restores the base (untimed), appends the delta with its fsyncs, and
// runs the incremental update with a fresh outcome log; the result and
// the compacted log must equal the grown corpus's cold references.
func appendUpdate(o options) (report, error) {
	t0 := time.Now()
	var cuts []*cut
	for _, pct := range cutPercents {
		c, err := loadCut(o.dir, pct)
		if err != nil {
			return report{}, err
		}
		cuts = append(cuts, c)
	}
	prep := time.Since(t0)
	updates := make(map[int][]float64)
	var appends []float64
	i := 0
	l := measure(o, func() (int, time.Duration, error) {
		c := cuts[i%len(cuts)]
		i++
		run := filepath.Join(o.dir, "run", cutName(c.pct))
		manifest, err := restoreBase(c.base, run)
		if err != nil {
			return 0, 0, err
		}
		logPath := run + ".gso"
		t0 := time.Now()
		if err := applyDelta(manifest, c.delta); err != nil {
			return 0, time.Since(t0), err
		}
		tAppend := time.Since(t0)
		res, err := geosocial.UpdateValidation(manifest, c.prev, c.prevLog, geosocial.StreamOptions{
			Workers: o.workers, OutcomeLog: logPath,
		})
		d := time.Since(t0)
		if err != nil {
			return 0, d, err
		}
		if err := sameEncoding(res, c.grown, fmt.Sprintf("update t%02d result", c.pct)); err != nil {
			return 0, d, err
		}
		if err := sameFile(logPath, c.grownLog, fmt.Sprintf("update t%02d outcome log", c.pct)); err != nil {
			return 0, d, err
		}
		updates[c.pct] = append(updates[c.pct], (d - tAppend).Seconds())
		if c.pct == 10 {
			appends = append(appends, tAppend.Seconds())
		}
		return res.Users, d, nil
	})
	var extra []info
	for _, pct := range cutPercents {
		extra = append(extra, info{fmt.Sprintf("update_s_p50.t%02d", pct), median(updates[pct]), "s"})
	}
	extra = append(extra, info{"append_s_p50", median(appends), "s"})
	return l.report(prep, extra...), nil
}
