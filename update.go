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

	"geosocial/internal/outcome"
	"geosocial/internal/trace"
)

// UpdateValidation incrementally updates a previous validation of the
// shard set at path. prev is the StreamResult of the earlier run (its
// Shards must be a prefix of the current manifest) and prevLog the
// outcome log that run wrote; both are required — the log is where the
// superseded per-user contributions come from. Only users touched by
// the appended generations are revalidated: their delta frames are
// folded onto the frames scanned (by cheap ID peek) from the earlier
// shards, and the validation engine runs them with the previous result
// as the contributions to add and the previous log as the ones to
// subtract. When opts.OutcomeLog
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
	ds, err := trace.MergeSets(ss, old)
	if err != nil {
		return nil, fmt.Errorf("geosocial: %w", err)
	}
	touched := ds.IDs()

	// Scan the earlier shards once, keeping only the touched users'
	// frames, undecoded (everything else is a cheap ID peek); the fold
	// pass decodes them on the worker pool. A touched user's home shard —
	// the one its stats live in — is the first shard holding a frame of
	// it, exactly the cold path's attribution rule. chains[i] holds the
	// frames of touched[i]. Kept frames are detached from the shard's
	// mapping, so each shard is closed (and unmapped) once scanned.
	pos := make(map[int]int, len(touched))
	for i, id := range touched {
		pos[id] = i
	}
	chains := make([][]heldFrame, len(touched))
	homeShard := make(map[int]int, len(touched))
	base := false
	for i := 0; i < old; i++ {
		r, err := ss.OpenShard(i)
		if err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
		base = base || !ss.Manifest.Shards[i].Delta
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
			if _, ok := homeShard[id]; !ok {
				homeShard[id] = i
			}
			chains[at] = append(chains[at], heldFrame{r: r, f: f.Detach()})
		}
		if err := r.Close(); err != nil {
			return nil, fmt.Errorf("geosocial: %w", err)
		}
	}
	if !base {
		return nil, fmt.Errorf("geosocial: update: shard set has no base shards")
	}

	// The plan: the previous result's per-shard stats and taxonomy are
	// the contributions to add, the previous log supplies the superseded
	// contributions to subtract, and the touched users fold and
	// revalidate in ascending ID order — an existing user into its home
	// shard, a brand-new user into the appended shard introducing it.
	k := len(ss.Manifest.Shards)
	p := &plan{name: prev.Name, prior: prevLog, shards: make([]string, k), newUsers: make([]int, k)}
	for i, info := range ss.Manifest.Shards {
		p.shards[i] = info.File
		p.newUsers[i] = -1
		if i < old {
			p.add = append(p.add, contribution{slot: i, tally: tally{users: prev.Shards[i].Users, part: prev.Shards[i].Partition}})
		} else {
			p.newUsers[i] = info.NewUsers
		}
	}
	p.add = append(p.add, contribution{slot: k, tally: tally{tax: prev.Taxonomy}}) // corpus-wide
	p.fold = make([]foldItem, len(touched))
	for i, id := range touched {
		home, existing := homeShard[id]
		if !existing {
			home = ds.Home(id)
		}
		p.fold[i] = foldItem{id: id, slot: home, replaces: existing}
	}
	// Each fold decodes its user's base frames and drops them once
	// folded (each worker owns its own index), so the update holds the
	// traces of the users in flight rather than of every touched user.
	p.foldUser = func(i int) (*trace.User, error) {
		id := touched[i]
		chain := chains[i]
		if len(chain) == 0 {
			return ds.FoldNew(id)
		}
		chains[i] = nil
		return foldFrames(chain, ds.Frames(id))
	}
	res, err := p.run(opts)
	if err != nil {
		return nil, err
	}
	res.Format = trace.FormatBinary
	res.Generation = ss.Manifest.Generation
	for kind, c := range res.Taxonomy {
		if c < 0 {
			return nil, fmt.Errorf("geosocial: update: taxonomy count %q went negative", kind)
		}
	}
	if res.Users != ss.Manifest.Users {
		return nil, fmt.Errorf("geosocial: update: %d users after update, manifest says %d",
			res.Users, ss.Manifest.Users)
	}
	return res, nil
}

// heldFrame is an undecoded base frame of a touched user with the
// (closed) reader that fetched it, which decodes it.
type heldFrame struct {
	r *trace.ShardReader
	f trace.Frame
}

// foldFrames decodes a touched user's base frames in order and folds
// its delta frames onto them. The decoded base records go back to the
// pool once FoldUser has copied them.
func foldFrames(chain []heldFrame, deltas []*trace.User) (*trace.User, error) {
	recs := make([]*trace.User, 0, len(chain)+len(deltas))
	recycle := func() {
		for _, u := range recs {
			chain[0].r.RecycleUser(u)
		}
	}
	for j, h := range chain {
		u, err := h.r.DecodeFrame(h.f)
		if err != nil {
			for _, rest := range chain[j+1:] {
				rest.r.Recycle(rest.f)
			}
			recycle()
			return nil, err
		}
		recs = append(recs, u)
	}
	u, err := trace.FoldUser(recs[0], append(recs, deltas...)[1:])
	if u != recs[0] { // FoldUser copied the base records
		recycle()
	}
	return u, err
}
