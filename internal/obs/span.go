package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Collector accumulates pipeline spans: per-(stage,shard) operation
// counts and wall time. It is built for the validation hot path — a
// worker fetches its *Cell once per shard (one mutex acquisition) and
// from then on records with two atomic adds per observation, no locks,
// no allocation, no clock reads beyond the caller's own.
//
// A nil *Collector is valid: Stage returns a nil *Cell whose Observe is
// a no-op, so instrumented code needs no enabled/disabled branches.
type Collector struct {
	mu    sync.Mutex
	cells map[cellKey]*Cell
}

type cellKey struct {
	stage, shard string
}

// NewCollector returns an empty span collector.
func NewCollector() *Collector {
	return &Collector{cells: make(map[cellKey]*Cell)}
}

// Stage returns the accumulation cell for a (stage, shard) pair,
// creating it on first use. Callers should hoist this out of loops:
// fetch once per shard, then Observe per record. Returns nil on a nil
// collector.
func (c *Collector) Stage(stage, shard string) *Cell {
	if c == nil {
		return nil
	}
	k := cellKey{stage, shard}
	c.mu.Lock()
	cell := c.cells[k]
	if cell == nil {
		cell = &Cell{stage: stage, shard: shard}
		c.cells[k] = cell
	}
	c.mu.Unlock()
	return cell
}

// Cell accumulates one (stage, shard) pair. All methods are safe for
// concurrent use and safe on a nil receiver.
type Cell struct {
	stage, shard string
	ops          atomic.Int64
	nanos        atomic.Int64
}

// Observe records n operations taking d of wall time. No-op on nil.
func (c *Cell) Observe(n int, d time.Duration) {
	if c == nil {
		return
	}
	c.ops.Add(int64(n))
	c.nanos.Add(int64(d))
}

// Start opens a timed span on the cell: it returns the current time, or
// the zero time without reading the clock on a nil cell. Pair it with
// Stop:
//
//	t := cell.Start()
//	... the timed work ...
//	cell.Stop(t, n)
func (c *Cell) Start() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stop records n operations in the span opened by Start at t. No-op on
// nil, so a disabled span reads no clock and allocates nothing.
func (c *Cell) Stop(t time.Time, n int) {
	if c == nil {
		return
	}
	c.Observe(n, time.Since(t))
}

// SpanStat is one (stage, shard) measurement in a snapshot.
type SpanStat struct {
	Stage   string        `json:"stage"`
	Shard   string        `json:"shard"`
	Ops     int64         `json:"ops"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Snapshot returns every cell's current totals, sorted by stage then
// shard for deterministic output. Cells keep accumulating; the snapshot
// is a consistent-enough point-in-time read (each cell's ops and nanos
// are read independently, which is fine for reporting). Nil-safe.
func (c *Collector) Snapshot() []SpanStat {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]SpanStat, 0, len(c.cells))
	for _, cell := range c.cells {
		out = append(out, SpanStat{
			Stage:   cell.stage,
			Shard:   cell.shard,
			Ops:     cell.ops.Load(),
			Elapsed: time.Duration(cell.nanos.Load()),
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// StageTotal aggregates one stage across every shard.
type StageTotal struct {
	Stage   string        `json:"stage"`
	Ops     int64         `json:"ops"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// ShardTotal aggregates one shard across every stage.
type ShardTotal struct {
	Shard   string        `json:"shard"`
	Ops     int64         `json:"ops"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Report is the post-run stage/shard breakdown rendered by
// `geovalidate -report`. Elapsed figures are summed wall time across
// workers, so with W workers a stage's total can exceed run wall time.
type Report struct {
	Spans        []SpanStat    `json:"spans"`
	Stages       []StageTotal  `json:"stages"`
	Shards       []ShardTotal  `json:"shards"`
	SlowestStage string        `json:"slowest_stage,omitempty"`
	SlowestShard string        `json:"slowest_shard,omitempty"`
	TotalOps     int64         `json:"total_ops"`
	TotalElapsed time.Duration `json:"total_elapsed_ns"`
}

// Report aggregates the collector into per-stage and per-shard totals
// and names the slowest of each by summed wall time. Nil-safe; an empty
// collector yields an empty report.
func (c *Collector) Report() Report {
	spans := c.Snapshot()
	var r Report
	r.Spans = spans
	stageIdx := map[string]int{}
	shardIdx := map[string]int{}
	for _, s := range spans {
		i, ok := stageIdx[s.Stage]
		if !ok {
			i = len(r.Stages)
			stageIdx[s.Stage] = i
			r.Stages = append(r.Stages, StageTotal{Stage: s.Stage})
		}
		r.Stages[i].Ops += s.Ops
		r.Stages[i].Elapsed += s.Elapsed
		j, ok := shardIdx[s.Shard]
		if !ok {
			j = len(r.Shards)
			shardIdx[s.Shard] = j
			r.Shards = append(r.Shards, ShardTotal{Shard: s.Shard})
		}
		r.Shards[j].Ops += s.Ops
		r.Shards[j].Elapsed += s.Elapsed
		r.TotalOps += s.Ops
		r.TotalElapsed += s.Elapsed
	}
	sort.Slice(r.Stages, func(i, j int) bool { return r.Stages[i].Elapsed > r.Stages[j].Elapsed })
	sort.Slice(r.Shards, func(i, j int) bool { return r.Shards[i].Elapsed > r.Shards[j].Elapsed })
	if len(r.Stages) > 0 {
		r.SlowestStage = r.Stages[0].Stage
	}
	if len(r.Shards) > 0 {
		r.SlowestShard = r.Shards[0].Shard
	}
	return r
}

// WriteText renders the report as an aligned human-readable breakdown.
func (r Report) WriteText(w io.Writer) error {
	if len(r.Spans) == 0 {
		_, err := fmt.Fprintln(w, "span report: no spans recorded")
		return err
	}
	if _, err := fmt.Fprintf(w, "span report: %d ops, %v summed wall time across workers\n", r.TotalOps, r.TotalElapsed.Round(time.Microsecond)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  slowest stage: %s\n  slowest shard: %s\n", r.SlowestStage, r.SlowestShard); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "  by stage:"); err != nil {
		return err
	}
	for _, s := range r.Stages {
		if _, err := fmt.Fprintf(w, "    %-18s ops=%-10d elapsed=%v\n", s.Stage, s.Ops, s.Elapsed.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "  by shard:"); err != nil {
		return err
	}
	for _, s := range r.Shards {
		if _, err := fmt.Fprintf(w, "    %-18s ops=%-10d elapsed=%v\n", s.Shard, s.Ops, s.Elapsed.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
