package geosocial

// Incremental revalidation: the live side of the append container.
//
// UpdateValidation takes the StreamResult and outcome log of a previous
// validation of a shard set and folds in the generations appended since,
// revalidating only the touched users. The previous log supplies each
// superseded user's old contribution, which is subtracted from the
// per-shard and aggregate counters before the recomputed contribution is
// added — all counters are commutative integer sums, so the updated
// result (and the compacted outcome log) is byte-identical to a cold
// full validation of the appended corpus.

import (
	"fmt"
	"io"
	"sort"
	"time"

	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/obs"
	"geosocial/internal/outcome"
	"geosocial/internal/par"
	"geosocial/internal/poi"
	"geosocial/internal/trace"
)

// UpdateValidation incrementally updates a previous validation of the
// shard set at path. prev is the StreamResult of the earlier run (its
// Shards must be a prefix of the current manifest) and prevLog the
// outcome log that run wrote; both are required — the log is where the
// superseded per-user contributions come from. Only users touched by
// the appended generations are revalidated: their delta frames are
// folded onto the frames scanned (by cheap ID peek) from the earlier
// shards, the folded users run through the standard pipeline, and their
// old contributions are swapped for the new ones. When opts.OutcomeLog
// is set the previous log is compacted into it with the touched users'
// records superseded.
//
// The returned result — and the rewritten log — is byte-identical to
// ValidateFileOpts on the same manifest (a cold revalidation of every
// user), for any worker count and any split of the appended data.
// opts.CheckpointDir is ignored: generational sets do not checkpoint.
func UpdateValidation(path string, prev *StreamResult, prevLog string, opts StreamOptions) (*StreamResult, error) {
	if prev == nil {
		return nil, fmt.Errorf("geosocial: update: no previous result")
	}
	if prevLog == "" {
		return nil, fmt.Errorf("geosocial: update: previous outcome log required")
	}
	ss, err := trace.OpenShardSet(path)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	if ss.Manifest.Name != prev.Name {
		return nil, fmt.Errorf("geosocial: update: manifest is dataset %q, previous result is %q",
			ss.Manifest.Name, prev.Name)
	}
	if ss.Manifest.Generation <= prev.Generation {
		return nil, fmt.Errorf("geosocial: update: manifest generation %d is not newer than previous result's %d",
			ss.Manifest.Generation, prev.Generation)
	}
	old := len(prev.Shards)
	if old == 0 || old >= len(ss.Manifest.Shards) {
		return nil, fmt.Errorf("geosocial: update: previous result has %d shards, manifest has %d",
			old, len(ss.Manifest.Shards))
	}
	for i := 0; i < old; i++ {
		if ss.Manifest.Shards[i].File != prev.Shards[i].Path {
			return nil, fmt.Errorf("geosocial: update: shard %d is %s, previous result has %s",
				i, ss.Manifest.Shards[i].File, prev.Shards[i].Path)
		}
	}
	for i := old; i < len(ss.Manifest.Shards); i++ {
		info := ss.Manifest.Shards[i]
		if !info.Delta || info.Generation <= prev.Generation {
			return nil, fmt.Errorf("geosocial: update: shard %s is not an appended delta (generation %d after %d)",
				info.File, info.Generation, prev.Generation)
		}
	}

	lf, err := outcome.Open(prevLog)
	if err != nil {
		return nil, fmt.Errorf("geosocial: update: %w", err)
	}
	logName := lf.Name()
	lf.Close()
	if logName != ss.Manifest.Name {
		return nil, fmt.Errorf("geosocial: update: outcome log is dataset %q, manifest is %q",
			logName, ss.Manifest.Name)
	}

	// Decode the appended delta shards: per-user frames in shard order,
	// plus each brand-new candidate's home shard (the first appended
	// shard holding a frame of an ID the earlier shards don't).
	newFrames := make(map[int][]*trace.User)
	newHome := make(map[int]int)
	for i := old; i < len(ss.Manifest.Shards); i++ {
		r, err := ss.OpenShard(i)
		if err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
		for {
			u, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.Close()
				return nil, fmt.Errorf("geosocial: %w", err)
			}
			if _, ok := newHome[u.ID]; !ok {
				newHome[u.ID] = i
			}
			newFrames[u.ID] = append(newFrames[u.ID], u)
		}
		if err := r.Close(); err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
	}
	touched := make([]int, 0, len(newFrames))
	for id := range newFrames {
		touched = append(touched, id)
	}
	sort.Ints(touched)

	// Scan the earlier shards once, decoding only the touched users'
	// frames (everything else is a cheap ID peek). A touched user's home
	// shard — the one its stats live in — is the first shard holding a
	// frame of it, exactly the cold path's attribution rule. chains[i]
	// holds the frames of touched[i].
	pos := make(map[int]int, len(touched))
	for i, id := range touched {
		pos[id] = i
	}
	chains := make([][]*trace.User, len(touched))
	homeShard := make(map[int]int, len(touched))
	var db *poi.DB
	for i := 0; i < old; i++ {
		r, err := ss.OpenShard(i)
		if err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
		if db == nil && !ss.Manifest.Shards[i].Delta {
			if db, err = poi.NewDB(r.POIs()); err != nil {
				r.Close()
				return nil, fmt.Errorf("geosocial: %w", err)
			}
		}
		for {
			f, err := r.NextFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.Close()
				return nil, fmt.Errorf("geosocial: %w", err)
			}
			id, err := f.UserID()
			if err != nil {
				r.Recycle(f)
				r.Close()
				return nil, fmt.Errorf("geosocial: %w", err)
			}
			at, hit := pos[id]
			if !hit {
				r.Recycle(f)
				continue
			}
			u, err := r.DecodeFrame(f)
			if err != nil {
				r.Close()
				return nil, fmt.Errorf("geosocial: %w", err)
			}
			if _, ok := homeShard[id]; !ok {
				homeShard[id] = i
			}
			chains[at] = append(chains[at], u)
		}
		if err := r.Close(); err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
	}
	if db == nil {
		return nil, fmt.Errorf("geosocial: update: shard set has no base shards")
	}

	// Fold and revalidate the touched users on the worker pool, in
	// ascending ID order. Each worker drops the frames it folded and,
	// once the record is built, the folded fixes, so the update holds the
	// traces of the users in flight rather than of every touched user.
	v := &core.Validator{Params: opts.Params, VisitConfig: opts.VisitConfig}
	clsParams := classify.DefaultParams()
	type updOut struct {
		out core.UserOutcome
		cls *classify.Classification
		rec *outcome.Record
	}
	outs, err := par.Map(opts.Workers, len(touched), func(i int) (updOut, error) {
		id := touched[i]
		// Span cells for the incremental path, attributed to the user's
		// home shard. Stage lookups are get-or-create under a mutex —
		// once per touched user, not per record — and skipped entirely
		// when spans are off.
		var foldCell, clsCell *obs.Cell
		var segObs, matchObs core.StageObserver
		if opts.Spans != nil {
			home, ok := homeShard[id]
			if !ok {
				home = newHome[id]
			}
			label := ss.Manifest.Shards[home].File
			foldCell = opts.Spans.Stage("fold", label)
			clsCell = opts.Spans.Stage("classify", label)
			segObs = opts.Spans.Stage("segment", label)
			matchObs = opts.Spans.Stage("match", label)
		}
		var u *trace.User
		var err error
		var t0 time.Time
		if foldCell != nil {
			t0 = time.Now()
		}
		if chain := chains[i]; len(chain) > 0 {
			chains[i] = nil // each worker owns its own index
			deltas := append(append([]*trace.User(nil), chain[1:]...), newFrames[id]...)
			u, err = trace.FoldUser(chain[0], deltas)
		} else {
			u, err = trace.FoldUser(newFrames[id][0], newFrames[id][1:])
		}
		if foldCell != nil {
			foldCell.Observe(1, time.Since(t0))
		}
		if err != nil {
			return updOut{}, err
		}
		o, err := v.ValidateUserSpans(u, db, segObs, matchObs)
		if err != nil {
			return updOut{}, err
		}
		if clsCell != nil {
			t0 = time.Now()
		}
		cl, err := classify.ClassifyUser(o, clsParams)
		if clsCell != nil {
			clsCell.Observe(1, time.Since(t0))
		}
		if err != nil {
			return updOut{}, fmt.Errorf("classify: user %d: %w", o.User.ID, err)
		}
		rec, err := outcome.NewRecord(o, cl)
		if err != nil {
			return updOut{}, err
		}
		// The merge below reads only checkins, visits and the match.
		u.GPS = nil
		return updOut{out: o, cls: cl, rec: rec}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}

	// The updated result starts as a deep copy of the previous one, with
	// a fresh stats slot per appended shard.
	res := &StreamResult{
		Name:       prev.Name,
		Format:     trace.FormatBinary,
		Generation: ss.Manifest.Generation,
		Taxonomy:   make(map[string]int, len(prev.Taxonomy)),
	}
	for k, c := range prev.Taxonomy {
		res.Taxonomy[k] = c
	}
	res.Shards = append([]ShardStat(nil), prev.Shards...)
	for i := old; i < len(ss.Manifest.Shards); i++ {
		res.Shards = append(res.Shards, ShardStat{Path: ss.Manifest.Shards[i].File})
	}

	// Walk the previous log: every record feeds the truth accumulator
	// (the result only retains the derived score, not the counts), and a
	// superseded record's partition and taxonomy contributions are
	// subtracted from its home shard before the recomputed ones go in.
	var truth, stale core.TruthAccum
	pending := make(map[int]bool, len(homeShard))
	for id := range homeShard {
		pending[id] = true
	}
	observe := func(rec *outcome.Record, superseded bool) error {
		rec.AddTruth(&truth)
		if !superseded {
			return nil
		}
		home, ok := homeShard[rec.UserID]
		if !ok {
			return fmt.Errorf("log has user %d, shards do not", rec.UserID)
		}
		delete(pending, rec.UserID)
		rec.AddTruth(&stale)
		var p core.Partition
		rec.AddTo(&p)
		res.Shards[home].Partition.Subtract(p)
		res.Shards[home].Users--
		for k, c := range rec.Counts() {
			if c > 0 {
				res.Taxonomy[classify.Kind(k).String()] -= c
			}
		}
		return nil
	}
	if opts.OutcomeLog != "" {
		recs := make([]*outcome.Record, len(outs))
		for i, o := range outs {
			recs[i] = o.rec
		}
		err = outcome.Append(prevLog, opts.OutcomeLog, recs, observe)
	} else {
		inUpdate := make(map[int]bool, len(touched))
		for _, id := range touched {
			inUpdate[id] = true
		}
		err = outcome.Scan(prevLog, func(rec *outcome.Record) error {
			return observe(rec, inUpdate[rec.UserID])
		})
	}
	if err != nil {
		return nil, fmt.Errorf("geosocial: update: %w", err)
	}
	if len(pending) > 0 {
		miss := make([]int, 0, len(pending))
		for id := range pending {
			miss = append(miss, id)
		}
		sort.Ints(miss)
		return nil, fmt.Errorf("geosocial: update: previous outcome log has no record for touched user %d", miss[0])
	}
	truth.SubtractCounts(stale.Counts())

	// Add the recomputed contributions: an existing user back into its
	// home shard, a brand-new user into the appended shard introducing
	// it.
	for i, o := range outs {
		id := touched[i]
		home, existing := homeShard[id]
		if !existing {
			home = newHome[id]
		}
		res.Shards[home].Users++
		res.Shards[home].Partition.Add(o.out)
		for _, k := range o.cls.Kinds {
			res.Taxonomy[k.String()]++
		}
		truth.Add(o.out)
		if opts.validated != nil {
			opts.validated(id)
		}
	}
	for k, c := range res.Taxonomy {
		if c < 0 {
			return nil, fmt.Errorf("geosocial: update: taxonomy count %q went negative", k)
		}
		if c == 0 {
			delete(res.Taxonomy, k)
		}
	}
	for i := old; i < len(ss.Manifest.Shards); i++ {
		if want := ss.Manifest.Shards[i].NewUsers; res.Shards[i].Users != want {
			return nil, fmt.Errorf("geosocial: delta shard %s introduced %d new users, manifest says %d",
				ss.Manifest.Shards[i].File, res.Shards[i].Users, want)
		}
	}
	for i := range res.Shards {
		res.Users += res.Shards[i].Users
		res.Partition.Merge(res.Shards[i].Partition)
	}
	if res.Users != ss.Manifest.Users {
		return nil, fmt.Errorf("geosocial: update: %d users after update, manifest says %d",
			res.Users, ss.Manifest.Users)
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
