package geosocial

// The validation engine. Every facade run — cold file, cold or resumed
// shard set, generational shard set, incremental update — is a plan
// with four parts, run by one engine:
//
//  1. sources to stream, decoded and validated on the worker pool
//     (par.MergeStreams) and accounted in the deterministic merged order;
//  2. precomputed contributions to add (checkpoint hits, or the
//     previous result's shard stats);
//  3. prior per-user contributions to subtract (superseded records of a
//     previous outcome log);
//  4. users to fold and then validate (delta-only users of a
//     generational set, or every user an append touched).
//
// Every aggregate is a sum of per-user integer counts, so the parts
// commute: the result is byte-identical to a cold validation of the
// same users for any worker count, shard split, checkpoint state and
// append history. Builders (ValidateFileOpts, validateShardSet,
// planCheckpoints, UpdateValidation, ValidateDatasetWorkers) fill the
// parts; the engine never asks which builder made the plan.

import (
	"fmt"

	"geosocial/internal/checkpoint"
	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/obs"
	"geosocial/internal/outcome"
	"geosocial/internal/par"
	"geosocial/internal/poi"
	"geosocial/internal/trace"
)

// plan is one validation run in the form the engine executes.
type plan struct {
	name string
	// shards labels the stats slots, one per result shard. Slot
	// len(shards) is corpus-wide: it feeds the totals but no shard.
	shards []string

	sources []source
	// db, when non-nil, snaps every validated user's visits to its POIs.
	// Only the in-memory API sets it (Figures 3 and 4 read the snap);
	// nothing a file or shard run reports does.
	db  *poi.DB
	add []contribution
	// prior, when non-empty, is a previous outcome log. A record of a
	// user this run revalidates is subtracted from the slot that
	// revalidated it; every other record adds its truth counts (the
	// previous result keeps only the derived score). A logging run
	// writes prior compacted with its own records.
	prior string
	// fold lists users to fold and validate once the sources are
	// drained, skipping users a source already validated. foldUser(i)
	// builds fold[i]'s trace, once per index, on any worker; the engine
	// owns the trace's GPS buffer and recycles it once validated.
	fold     []foldItem
	foldUser func(i int) (*trace.User, error)
	// newUsers, when non-nil, is per slot the number of users a delta
	// shard introduces per the manifest (-1: not a delta shard).
	newUsers []int
}

// source is one stream of raw frames feeding a stats slot.
type source struct {
	src  trace.FrameSource
	slot int
	// ckpt, when non-nil, checkpoints the source into a fragment keyed
	// by sum, committed when the merge reports the source's clean end,
	// so a kill loses at most the shards still in flight.
	ckpt *checkpoint.Store
	sum  string
}

// contribution is a precomputed share of the aggregates.
type contribution struct {
	slot int
	tally
	ids []int // users it covers, seeded into the duplicate-ID check
	// replay, when non-nil, re-emits its outcome-log records; called
	// only when the run writes a log.
	replay func(emit func(*outcome.Record) error) error
	note   string // logged once the contribution is merged
}

// foldItem is one user the fold pass validates.
type foldItem struct {
	id, slot int
	replaces bool // the prior log holds a record of this user
}

// tally is one stats slot's running sums.
type tally struct {
	users int
	part  core.Partition
	tax   map[string]int
	truth core.TruthAccum
}

// outcomeCls is one validated user on its way from a worker to the
// accounting goroutine.
type outcomeCls struct {
	out      core.UserOutcome
	cls      *classify.Classification
	rec      *outcome.Record // outcome-log record, nil unless logging
	recBytes []byte          // its encoding, nil unless checkpointing a logging run
}

// engine is the state of one plan's run.
type engine struct {
	p     *plan
	opts  StreamOptions
	v     core.Validator
	cls   classify.Params
	slots []tally
	spans []shardSpans
	seen  map[int]int // user ID -> slot, the duplicate-ID check
	ckpts []ckptFrag  // per source; zero unless checkpointed

	logging bool
	logw    *outcome.Writer   // the fresh outcome log (no prior log)
	recs    []*outcome.Record // this run's records, compacted into the prior log
}

// run executes the plan. Builders set the result's Format and
// Generation.
func (p *plan) run(opts StreamOptions) (*StreamResult, error) {
	n := len(p.shards)
	e := &engine{
		p:       p,
		opts:    opts,
		v:       core.Validator{Params: opts.Params},
		cls:     classify.DefaultParams(),
		slots:   make([]tally, n+1),
		spans:   make([]shardSpans, n),
		seen:    make(map[int]int, 256),
		logging: opts.OutcomeLog != "",
	}
	for i := range e.slots {
		e.slots[i].tax = make(map[string]int, classify.NumKinds)
	}
	e.openSpans()
	if e.logging && p.prior == "" {
		var err error
		if e.logw, err = outcome.Create(opts.OutcomeLog, p.name); err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
		defer e.logw.Discard() // no-op once Close has published the log
	}
	defer func() {
		for _, c := range e.ckpts {
			if c.frag != nil {
				c.frag.Abort()
			}
		}
	}()

	if err := e.merge(); err != nil {
		return nil, err
	}
	if err := e.stream(); err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	if err := e.foldPass(); err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	if p.prior != "" {
		if err := e.subtractPrior(); err != nil {
			return nil, err
		}
	}
	for i, want := range p.newUsers {
		if want >= 0 && e.slots[i].users != want {
			return nil, fmt.Errorf("geosocial: delta shard %s introduced %d new users, manifest says %d",
				p.shards[i], e.slots[i].users, want)
		}
	}
	if e.logw != nil {
		if err := e.logw.Close(); err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
	}
	return e.finalize()
}

// openSpans creates the span cells of every slot that runs: decode and
// merge for streamed slots, checkpoint-commit for checkpointed ones,
// fold for fold targets, and classify, segment and match for all of
// them. Checkpoint hits never run and get none. The slice stays
// all-zero when spans are off.
func (e *engine) openSpans() {
	c := e.opts.Spans
	if c == nil {
		return
	}
	stage := func(slot int, name string) *obs.Cell {
		sp, label := &e.spans[slot], e.p.shards[slot]
		if sp.classify == nil {
			sp.classify, sp.segment, sp.match = c.Stage("classify", label), c.Stage("segment", label), c.Stage("match", label)
		}
		return c.Stage(name, label)
	}
	for _, s := range e.p.sources {
		e.spans[s.slot].decode = stage(s.slot, "decode")
		e.spans[s.slot].merge = stage(s.slot, "merge")
		if s.ckpt != nil {
			e.spans[s.slot].commit = stage(s.slot, "checkpoint-commit")
		}
	}
	for _, fu := range e.p.fold {
		e.spans[fu.slot].fold = stage(fu.slot, "fold")
	}
}

// merge adds the precomputed contributions: counters into their slot,
// covered user IDs into the duplicate check, and records into the
// outcome log (the writer canonicalizes order at Close, so replayed
// and live records interleave freely).
func (e *engine) merge() error {
	for _, c := range e.p.add {
		t := &e.slots[c.slot]
		t.users += c.users
		t.part.Merge(c.part)
		for k, n := range c.tax {
			t.tax[k] += n
		}
		t.truth.Merge(c.truth)
		for _, id := range c.ids {
			if prev, dup := e.seen[id]; dup {
				return fmt.Errorf("geosocial: duplicate user ID %d (%s and %s)", id, e.p.shards[prev], e.p.shards[c.slot])
			}
			e.seen[id] = c.slot
		}
		if e.logging && c.replay != nil {
			if err := c.replay(e.emit); err != nil {
				return fmt.Errorf("geosocial: %w", err)
			}
		}
		if c.note != "" {
			e.opts.Logger.Printf("%s", c.note)
		}
	}
	return nil
}

// stream validates the plan's sources on the worker pool and accounts
// each user in the deterministic merged order.
func (e *engine) stream() error {
	srcs := e.p.sources
	e.ckpts = make([]ckptFrag, len(srcs))
	next := make([]func() (trace.Frame, error), len(srcs))
	// Once account has folded a user into the aggregates nothing holds
	// the record (stats are counts, outcome records copy what they
	// keep), so it goes back to its source's pool for the next decode.
	// Only trace.UserRecycler sources participate; a generational fold
	// source is one over a shard reader (the DeltaSet keeps its delta
	// records, which a fold never hands out). The in-memory API's source,
	// whose outcomes keep retains, is not one.
	recyclers := make([]trace.UserRecycler, len(srcs))
	for j, s := range srcs {
		recyclers[j], _ = s.src.(trace.UserRecycler)
		next[j] = s.src.NextFrame
		if s.ckpt == nil {
			continue
		}
		fr, err := s.ckpt.Begin(s.sum)
		if err != nil {
			return err
		}
		e.ckpts[j].frag = fr
	}
	return par.MergeStreams(e.opts.Workers, next,
		func(j, _ int, fr trace.Frame) (outcomeCls, error) {
			s := &srcs[j]
			sp := &e.spans[s.slot]
			t := sp.decode.Start()
			u, err := s.src.DecodeFrame(fr)
			sp.decode.Stop(t, 1)
			if err != nil {
				return outcomeCls{}, err
			}
			return e.process(u, sp, s.ckpt != nil)
		},
		func(j, _ int, oc outcomeCls) error {
			slot := srcs[j].slot
			merge := e.spans[slot].merge
			t := merge.Start()
			err := e.account(slot, oc)
			merge.Stop(t, 1)
			if err != nil {
				return err
			}
			if c := &e.ckpts[j]; c.frag != nil {
				c.ids = append(c.ids, oc.out.User.ID)
				if oc.recBytes != nil {
					if err := c.frag.AddRecord(oc.recBytes); err != nil {
						return err
					}
				}
			}
			if recyclers[j] != nil {
				recyclers[j].RecycleUser(oc.out.User)
			}
			return nil
		},
		e.commit)
}

// commit publishes source j's checkpoint fragment, if it has one. The
// merge calls it once the source has ended cleanly (which, for a
// shard's StreamReader, implies its input ended at the trailer and the
// manifest user count was verified) and every user it yielded is
// accounted.
func (e *engine) commit(j int) error {
	c := &e.ckpts[j]
	if c.frag == nil {
		return nil
	}
	slot := e.p.sources[j].slot
	t := &e.slots[slot]
	commit := e.spans[slot].commit
	t0 := commit.Start()
	err := c.frag.Commit(&checkpoint.Meta{
		Users:     t.users,
		Partition: t.part,
		Taxonomy:  t.tax,
		Truth:     t.truth.Counts(),
	}, c.ids)
	commit.Stop(t0, t.users)
	if err != nil {
		return err
	}
	c.frag = nil
	e.opts.Logger.Printf("geosocial: shard %s: checkpoint written (%d users)", e.p.shards[slot], t.users)
	return nil
}

// foldPass folds and validates, on the worker pool, the fold users no
// source validated, then accounts them in list order. Each worker drops
// the folded fixes once the record is built, so the pass holds the
// traces of the users in flight rather than of every folded user.
func (e *engine) foldPass() error {
	var todo []int
	for i, fu := range e.p.fold {
		if _, done := e.seen[fu.id]; !done {
			todo = append(todo, i)
		}
	}
	ocs, err := par.Map(e.opts.Workers, len(todo), func(k int) (outcomeCls, error) {
		sp := &e.spans[e.p.fold[todo[k]].slot]
		t := sp.fold.Start()
		u, err := e.p.foldUser(todo[k])
		sp.fold.Stop(t, 1)
		if err != nil {
			return outcomeCls{}, err
		}
		oc, err := e.process(u, sp, false)
		// Accounting reads only checkins, visits and the match, so the
		// fixes' buffer goes back to the pool for the next fold or decode.
		trace.RecycleGPS(u)
		return oc, err
	})
	if err != nil {
		return err
	}
	for k, oc := range ocs {
		if err := e.account(e.p.fold[todo[k]].slot, oc); err != nil {
			return err
		}
	}
	return nil
}

// process runs the CPU-heavy per-user stages on a worker: validation,
// classification and, when logging, record distillation (and its
// encoding for a checkpoint fragment when encode is set).
func (e *engine) process(u *trace.User, sp *shardSpans, encode bool) (outcomeCls, error) {
	o, err := e.v.ValidateUserSpans(u, e.p.db, sp.segment, sp.match)
	if err != nil {
		return outcomeCls{}, err
	}
	t := sp.classify.Start()
	cl, err := classify.ClassifyUser(o, e.cls)
	sp.classify.Stop(t, 1)
	if err != nil {
		return outcomeCls{}, fmt.Errorf("classify: user %d: %w", o.User.ID, err)
	}
	oc := outcomeCls{out: o, cls: cl}
	if e.logging {
		if oc.rec, err = outcome.NewRecord(o, cl); err != nil {
			return outcomeCls{}, err
		}
		if encode {
			if oc.recBytes, err = outcome.EncodeRecord(oc.rec); err != nil {
				return outcomeCls{}, err
			}
		}
	}
	return oc, nil
}

// account adds one validated user to a slot on the collecting
// goroutine.
func (e *engine) account(slot int, oc outcomeCls) error {
	id := oc.out.User.ID
	if prev, dup := e.seen[id]; dup {
		return fmt.Errorf("duplicate user ID %d (%s and %s)", id, e.p.shards[prev], e.p.shards[slot])
	}
	e.seen[id] = slot
	t := &e.slots[slot]
	t.users++
	t.part.Add(oc.out)
	for k, c := range oc.cls.Counts() {
		if c > 0 {
			t.tax[classify.Kind(k).String()] += c
		}
	}
	t.truth.Add(oc.out)
	if e.opts.keep != nil {
		e.opts.keep(oc.out, oc.cls)
	}
	if oc.rec != nil {
		return e.emit(oc.rec)
	}
	return nil
}

// emit sends one record to the run's outcome log.
func (e *engine) emit(rec *outcome.Record) error {
	if e.logw != nil {
		return e.logw.Write(rec)
	}
	e.recs = append(e.recs, rec)
	return nil
}

// subtractPrior walks the prior log once, reading only the columns the
// accounting needs (outcome.Walk, or the walk inside outcome.Append). A
// record of a revalidated user is subtracted from the slot that
// revalidated it; any other record adds its truth counts. When logging,
// the same pass compacts the prior log with this run's records into the
// output log.
func (e *engine) subtractPrior() error {
	pending := make(map[int]bool) // replacing user -> its record not yet seen
	for _, fu := range e.p.fold {
		if fu.replaces {
			pending[fu.id] = true
		}
	}
	observe := func(rec *outcome.Record, superseded bool) error {
		if !superseded {
			rec.AddTruth(&e.slots[len(e.p.shards)].truth)
			return nil
		}
		if _, ok := pending[rec.UserID]; !ok {
			return fmt.Errorf("log has user %d, shards do not", rec.UserID)
		}
		pending[rec.UserID] = false
		t := &e.slots[e.seen[rec.UserID]]
		var p core.Partition
		rec.AddTo(&p)
		t.part.Subtract(p)
		t.users--
		for k, c := range rec.Counts() {
			if c > 0 {
				t.tax[classify.Kind(k).String()] -= c
			}
		}
		return nil
	}
	var err error
	if e.logging {
		err = outcome.Append(e.p.prior, e.opts.OutcomeLog, e.recs, observe)
	} else {
		err = outcome.Walk(e.p.prior, func(rec *outcome.Record) error {
			_, revalidated := e.seen[rec.UserID]
			return observe(rec, revalidated)
		})
	}
	if err != nil {
		return fmt.Errorf("geosocial: update: %w", err)
	}
	miss, missing := 0, false
	for id, open := range pending {
		if open && (!missing || id < miss) {
			miss, missing = id, true
		}
	}
	if missing {
		return fmt.Errorf("geosocial: update: previous outcome log has no record for touched user %d", miss)
	}
	return nil
}

// finalize sums the slots into the result.
func (e *engine) finalize() (*StreamResult, error) {
	res := &StreamResult{
		Name:     e.p.name,
		Taxonomy: make(map[string]int, classify.NumKinds),
		Shards:   make([]ShardStat, len(e.p.shards)),
	}
	var truth core.TruthAccum
	for i := range e.slots {
		t := &e.slots[i]
		if i < len(res.Shards) {
			res.Shards[i] = ShardStat{Path: e.p.shards[i], Users: t.users, Partition: t.part}
		}
		res.Users += t.users
		res.Partition.Merge(t.part)
		for k, c := range t.tax {
			res.Taxonomy[k] += c
		}
		truth.Merge(t.truth)
	}
	for k, c := range res.Taxonomy {
		if c == 0 {
			delete(res.Taxonomy, k)
		}
	}
	if truth.Labeled() > 0 {
		sc, err := truth.Score()
		if err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
		res.Truth = &sc
	}
	return res, nil
}

// ckptFrag is a checkpointed source's fragment in progress (nil once
// committed) and the user IDs accounted to it.
type ckptFrag struct {
	frag *checkpoint.Frag
	ids  []int
}

// shardSpans bundles one slot's span cells. A zero shardSpans (spans
// off, or a slot that never runs) makes every instrumentation site a
// nil check — no clock read, no allocation. segment and match are the
// interface type core consumes; they only ever hold non-nil cells,
// never typed-nil pointers, so core's own nil checks stay meaningful.
type shardSpans struct {
	decode   *obs.Cell
	fold     *obs.Cell
	classify *obs.Cell
	merge    *obs.Cell
	commit   *obs.Cell
	segment  core.StageObserver
	match    core.StageObserver
}
