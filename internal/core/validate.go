package core

import (
	"fmt"
	"time"

	"geosocial/internal/poi"
	"geosocial/internal/trace"
	"geosocial/internal/visits"
)

// UserOutcome bundles one user's detected visits and matching result.
// Visits are snapped to POIs only when validation was given a POI
// database: ValidateDataset and the facade's in-memory runs pass one
// (Figures 3 and 4 read the snap); file and shard runs pass none, since
// nothing they report reads it, so their visits carry POIID -1.
type UserOutcome struct {
	User   *trace.User
	Visits []trace.Visit
	Match  *Result
}

// Partition is the dataset-level Venn diagram of Figure 1.
type Partition struct {
	Checkins   int `json:"checkins"`   // total checkin events
	Visits     int `json:"visits"`     // total detected visits
	Honest     int `json:"honest"`     // matched checkins
	Extraneous int `json:"extraneous"` // unmatched checkins
	Missing    int `json:"missing"`    // unmatched visits
}

// Merge adds q's counts into p. Merging per-shard partitions in any
// order yields exactly the partition of the concatenated users —
// addition is associative and commutative — which is what makes sharded
// validation byte-identical to single-file validation.
func (p *Partition) Merge(q Partition) {
	p.Checkins += q.Checkins
	p.Visits += q.Visits
	p.Honest += q.Honest
	p.Extraneous += q.Extraneous
	p.Missing += q.Missing
}

// Subtract removes q's counts from p — the inverse of Merge. It is the
// subtract half of the incremental update's subtract-then-add: removing
// a user's old contribution and adding its re-validated one leaves
// exactly the partition a cold run over the updated corpus computes,
// because the counts are plain commutative sums.
func (p *Partition) Subtract(q Partition) {
	p.Checkins -= q.Checkins
	p.Visits -= q.Visits
	p.Honest -= q.Honest
	p.Extraneous -= q.Extraneous
	p.Missing -= q.Missing
}

// ExtraneousRatio returns extraneous checkins as a fraction of all
// checkins (the paper reports 75 %).
func (p Partition) ExtraneousRatio() float64 {
	if p.Checkins == 0 {
		return 0
	}
	return float64(p.Extraneous) / float64(p.Checkins)
}

// CoverageRatio returns matched visits as a fraction of all visits (the
// paper reports roughly 10 %).
func (p Partition) CoverageRatio() float64 {
	if p.Visits == 0 {
		return 0
	}
	return float64(p.Honest) / float64(p.Visits)
}

// MissingRatio returns unmatched visits as a fraction of all visits (the
// paper reports 89 %).
func (p Partition) MissingRatio() float64 {
	if p.Visits == 0 {
		return 0
	}
	return float64(p.Missing) / float64(p.Visits)
}

// String implements fmt.Stringer in the shape of Figure 1.
func (p Partition) String() string {
	return fmt.Sprintf("honest=%d extraneous=%d (%.0f%% of %d checkins) missing=%d (%.0f%% of %d visits)",
		p.Honest, p.Extraneous, 100*p.ExtraneousRatio(), p.Checkins,
		p.Missing, 100*p.MissingRatio(), p.Visits)
}

// Validator runs the full §4 pipeline: visit detection with the paper's
// stay-point parameters (visits.DefaultConfig) followed by
// checkin-to-visit matching, per user and dataset-wide.
type Validator struct {
	// Params are the matching thresholds (DefaultParams when zero).
	Params Params
}

// NewValidator returns a validator with the paper's parameters.
func NewValidator() *Validator {
	return &Validator{Params: DefaultParams()}
}

// StageObserver receives one pipeline stage's instrumentation: n
// records processed in d of wall time. internal/obs span cells satisfy
// it; core depends only on this interface so the hot path carries no
// observability imports.
type StageObserver interface {
	Observe(n int, d time.Duration)
}

// Add accumulates one user outcome into the partition; summing outcomes
// in any order yields the dataset-level Figure 1 split.
func (p *Partition) Add(o UserOutcome) {
	p.Checkins += len(o.User.Checkins)
	p.Visits += len(o.Visits)
	p.Honest += o.Match.Honest()
	p.Extraneous += o.Match.Extraneous()
	p.Missing += o.Match.Missing()
}

// ValidateUserSpans runs the §4 pipeline — visit detection then
// matching — for one user, resolving zero Params to the paper defaults.
// Visits are snapped to db's POIs; a nil db skips the snap and leaves
// POIID -1, which changes no match. It is pure: ValidateDataset and the
// facade's engine both call it, which is what makes their matches and
// partitions identical.
//
// seg observes the visit-detection (segment) stage and match the
// checkin-matching stage, each as (1 user, wall time). Pass nil
// interfaces — not typed nil pointers — to disable either: the nil
// checks are what keeps the uninstrumented path free of clock reads.
// Observers only ever receive timings; they never influence the
// outcome.
func (v *Validator) ValidateUserSpans(u *trace.User, db *poi.DB, seg, match StageObserver) (UserOutcome, error) {
	params := v.Params
	if params == (Params{}) {
		params = DefaultParams()
	}
	var t0 time.Time
	if seg != nil {
		t0 = time.Now()
	}
	vs, err := visits.Detect(u.GPS, visits.DefaultConfig(), db)
	if seg != nil {
		seg.Observe(1, time.Since(t0))
	}
	if err != nil {
		return UserOutcome{}, fmt.Errorf("core: user %d: %w", u.ID, err)
	}
	if match != nil {
		t0 = time.Now()
	}
	res, err := MatchUser(u.Checkins, vs, params)
	if match != nil {
		match.Observe(1, time.Since(t0))
	}
	if err != nil {
		return UserOutcome{}, fmt.Errorf("core: user %d: %w", u.ID, err)
	}
	return UserOutcome{User: u, Visits: vs, Match: res}, nil
}

// ValidateDataset runs visit detection (snapping visits to the dataset's
// POIs) and matching for every user, one after another, and returns the
// per-user outcomes with the dataset partition. It is the serial
// reference the facade's parallel engine is tested against.
func (v *Validator) ValidateDataset(ds *trace.Dataset) ([]UserOutcome, Partition, error) {
	db, err := ds.DB()
	if err != nil {
		return nil, Partition{}, fmt.Errorf("core: %w", err)
	}
	outs := make([]UserOutcome, len(ds.Users))
	var part Partition
	for i, u := range ds.Users {
		if outs[i], err = v.ValidateUserSpans(u, db, nil, nil); err != nil {
			return nil, Partition{}, err
		}
		part.Add(outs[i])
	}
	return outs, part, nil
}

// TruthScore compares the matcher's honest/extraneous split against the
// generator's ground-truth labels (synthetic data only). It treats
// "matched" as the positive class for honest-labeled checkins.
type TruthScore struct {
	Labeled  int     `json:"labeled"`          // checkins carrying a ground-truth label
	Agree    int     `json:"agree"`            // checkins where matcher and label agree
	Accuracy float64 `json:"accuracy"`         // Agree / Labeled
	HonestP  float64 `json:"honest_precision"` // precision of the matched set against LabelHonest
	HonestR  float64 `json:"honest_recall"`    // recall of LabelHonest checkins into the matched set
}

// TruthAccum incrementally builds a TruthScore from a stream of user
// outcomes: Add each outcome as it arrives (O(1) state), then Score. It
// is the streaming-friendly core of ScoreAgainstTruth.
type TruthAccum struct {
	labeled, agree                           int
	matchedHonest, matchedTotal, honestTotal int
}

// Add accumulates one user's labeled checkins.
func (a *TruthAccum) Add(o UserOutcome) {
	for ci, c := range o.User.Checkins {
		a.AddLabel(c.Truth, o.Match.IsHonest(ci))
	}
}

// AddLabel accumulates one checkin given its ground-truth label and
// whether the matcher marked it honest. LabelNone is a no-op. It is the
// per-checkin core of Add, shared with the outcome-log path (which
// stores labels and match verdicts but not the traces behind them).
func (a *TruthAccum) AddLabel(l trace.Label, isMatched bool) {
	if l == trace.LabelNone {
		return
	}
	a.labeled++
	wantHonest := l == trace.LabelHonest
	if isMatched == wantHonest {
		a.agree++
	}
	if isMatched {
		a.matchedTotal++
		if wantHonest {
			a.matchedHonest++
		}
	}
	if wantHonest {
		a.honestTotal++
	}
}

// Labeled returns the number of labeled checkins seen so far.
func (a *TruthAccum) Labeled() int { return a.labeled }

// TruthCounts is the serializable snapshot of a TruthAccum: plain
// commutative sums, so persisted per-shard counts (the checkpoint
// store) merge back into a live accumulator in any order and score
// exactly like one accumulator fed the concatenated users.
type TruthCounts struct {
	Labeled       int `json:"labeled"`
	Agree         int `json:"agree"`
	MatchedHonest int `json:"matched_honest"`
	MatchedTotal  int `json:"matched_total"`
	HonestTotal   int `json:"honest_total"`
}

// Counts snapshots the accumulator's state.
func (a *TruthAccum) Counts() TruthCounts {
	return TruthCounts{
		Labeled:       a.labeled,
		Agree:         a.agree,
		MatchedHonest: a.matchedHonest,
		MatchedTotal:  a.matchedTotal,
		HonestTotal:   a.honestTotal,
	}
}

// AddCounts merges a persisted snapshot back into the accumulator.
func (a *TruthAccum) AddCounts(c TruthCounts) {
	a.labeled += c.Labeled
	a.agree += c.Agree
	a.matchedHonest += c.MatchedHonest
	a.matchedTotal += c.MatchedTotal
	a.honestTotal += c.HonestTotal
}

// Merge adds b's counts into a. Like Partition.Merge it is associative
// and commutative, so per-shard accumulators merged in any order score
// exactly like one accumulator fed the concatenated users.
func (a *TruthAccum) Merge(b TruthAccum) {
	a.labeled += b.labeled
	a.agree += b.agree
	a.matchedHonest += b.matchedHonest
	a.matchedTotal += b.matchedTotal
	a.honestTotal += b.honestTotal
}

// Score finalizes the accumulated counts. It returns an error when no
// checkin carried a label (real data).
func (a *TruthAccum) Score() (TruthScore, error) {
	sc := TruthScore{Labeled: a.labeled, Agree: a.agree}
	if a.labeled == 0 {
		return sc, fmt.Errorf("core: no ground-truth labels present")
	}
	sc.Accuracy = float64(a.agree) / float64(a.labeled)
	if a.matchedTotal > 0 {
		sc.HonestP = float64(a.matchedHonest) / float64(a.matchedTotal)
	}
	if a.honestTotal > 0 {
		sc.HonestR = float64(a.matchedHonest) / float64(a.honestTotal)
	}
	return sc, nil
}

// ScoreAgainstTruth computes matcher-vs-ground-truth agreement over the
// outcomes. It returns an error when no checkin carries a label (real
// data).
func ScoreAgainstTruth(outs []UserOutcome) (TruthScore, error) {
	var a TruthAccum
	for _, o := range outs {
		a.Add(o)
	}
	return a.Score()
}

// SweepPoint is one cell of the (α, β) consistency sweep.
type SweepPoint struct {
	Alpha  float64
	Beta   time.Duration
	Honest int
}

// SweepParams reruns matching over a grid of (α, β) values and reports
// the honest-checkin count at each point. The paper's §4.1 claim — that
// results are "most consistent" around 500 m / 30 min — corresponds to
// the count surface flattening there; the ablation bench regenerates it.
//
// One Matcher and one Result serve every user and cell, so the sweep
// allocates its scratch once rather than per (α, β, user).
func SweepParams(outs []UserOutcome, alphas []float64, betas []time.Duration) ([]SweepPoint, error) {
	if len(alphas) == 0 || len(betas) == 0 {
		return nil, nil
	}
	honest := make([]int, len(alphas)*len(betas))
	var m Matcher
	var res Result
	for _, o := range outs {
		for ai, a := range alphas {
			for bi, b := range betas {
				if err := m.MatchInto(&res, o.User.Checkins, o.Visits, Params{Alpha: a, Beta: b}); err != nil {
					return nil, err
				}
				honest[ai*len(betas)+bi] += res.Honest()
			}
		}
	}
	pts := make([]SweepPoint, 0, len(honest))
	for ai, a := range alphas {
		for bi, b := range betas {
			pts = append(pts, SweepPoint{Alpha: a, Beta: b, Honest: honest[ai*len(betas)+bi]})
		}
	}
	return pts, nil
}
