// Package core implements the paper's primary contribution: the algorithm
// that matches Foursquare checkin events against GPS-derived visits
// (§4.1), the resulting honest/extraneous/missing partition (Figure 1),
// and the parameter-consistency sweep behind the choice of α = 500 m and
// β = 30 min.
//
// Matching algorithm (verbatim from §4.1):
//
//	Step 1: for each checkin event ci, identify from the same user's GPS
//	trace the set of visits {V} whose physical locations are within α
//	meters of ci's location.
//
//	Step 2: if {V} is non-null, find the visit vj in {V} whose timestamp
//	is closest to that of ci (using the interval distance Δt of the §4.1
//	footnote). If Δt < β, vj matches ci.
//
// Each checkin matches at most one visit; when multiple checkins claim
// the same visit, the geographically closest checkin keeps it and the
// rest become unmatched (they are the superfluous checkins of §5.1).
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"geosocial/internal/geo"
	"geosocial/internal/trace"
)

// Params are the matching thresholds.
type Params struct {
	// Alpha is the spatial threshold in meters (paper: 500 m).
	Alpha float64
	// Beta is the temporal threshold (paper: 30 min).
	Beta time.Duration
}

// DefaultParams returns the paper's thresholds: α = 500 m, β = 30 min,
// chosen in §4.1 as the values where matching results are most consistent.
func DefaultParams() Params {
	return Params{Alpha: 500, Beta: 30 * time.Minute}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Alpha <= 0 {
		return fmt.Errorf("core: Alpha must be positive, got %g", p.Alpha)
	}
	if p.Beta <= 0 {
		return fmt.Errorf("core: Beta must be positive, got %v", p.Beta)
	}
	return nil
}

// Match is one checkin-to-visit correspondence.
type Match struct {
	CheckinIdx int           // index into the user's checkin trace
	VisitIdx   int           // index into the user's visit list
	DeltaT     time.Duration // interval timestamp distance at match time
	Dist       float64       // meters between checkin POI and visit centroid
}

// Result is the outcome of matching one user's traces.
type Result struct {
	// Matches holds the surviving one-to-one correspondences; matched
	// checkins are the "honest" set.
	Matches []Match
	// ExtraneousIdx lists checkin indices with no matching visit.
	ExtraneousIdx []int
	// MissingIdx lists visit indices not matched by any checkin
	// ("missing checkins" / unmatched visits).
	MissingIdx []int

	// honestBits and visitBits are bitmaps over checkin / visit indices,
	// filled by MatchInto so IsHonest and IsVisitMatched are O(1). A zero
	// Result has neither, and no matches.
	honestBits []bool
	visitBits  []bool
}

// Honest returns the number of matched (honest) checkins.
func (r *Result) Honest() int { return len(r.Matches) }

// Extraneous returns the number of unmatched checkins.
func (r *Result) Extraneous() int { return len(r.ExtraneousIdx) }

// Missing returns the number of unmatched visits.
func (r *Result) Missing() int { return len(r.MissingIdx) }

// IsHonest reports whether checkin index ci was matched.
func (r *Result) IsHonest(ci int) bool {
	return ci >= 0 && ci < len(r.honestBits) && r.honestBits[ci]
}

// IsVisitMatched reports whether visit index vi was claimed by a checkin.
func (r *Result) IsVisitMatched(vi int) bool {
	return vi >= 0 && vi < len(r.visitBits) && r.visitBits[vi]
}

// MatchUser runs the matching algorithm for one user's checkins against
// the user's detected visits. A checkin's candidates are the visits
// within β of it in time (a VisitWindow query), and α is decided with
// the exact great-circle distance. Visits may come in any order and may
// overlap: ties go by index, never by position in a scan. Visits from
// internal/visits are already in start order and are searched in place.
//
// To match repeatedly without allocating — the (α, β) sweep — reuse a
// Matcher and a Result through Matcher.MatchInto.
func MatchUser(checkins trace.CheckinTrace, vs []trace.Visit, p Params) (*Result, error) {
	var m Matcher
	res := new(Result)
	if err := m.MatchInto(res, checkins, vs, p); err != nil {
		return nil, err
	}
	return res, nil
}

// Matcher is the reusable scratch of the matching pass. A Matcher is not
// safe for concurrent use; give each goroutine its own.
type Matcher struct {
	win    VisitWindow
	claims []claim // per checkin, its Step 2 pick before conflict resolution
	winner []int32 // per visit, the closest checkin claiming it, or -1
}

// claim is the visit a checkin picked (-1: none) and its distance.
type claim struct {
	visit int
	dist  float64
}

// MatchInto is MatchUser writing its result into res, reusing res's
// slices and the matcher's scratch — the steady-state allocation-free
// form for loops that recycle a Result across users or parameter
// settings. res's previous contents are overwritten.
func (m *Matcher) MatchInto(res *Result, checkins trace.CheckinTrace, vs []trace.Visit, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	m.win.Reset(vs)
	m.claims = reuse(m.claims, len(checkins))
	m.winner = reuse(m.winner, len(vs))
	for i := range m.winner {
		m.winner[i] = -1
	}

	// Step 1 + Step 2: each checkin picks the visit closest in time among
	// those within α and β, the lowest visit index on a ΔT tie (§4.1
	// does not specify a tie rule; index order is the deterministic
	// choice). Time is tested first: it is an integer compare, and a
	// candidate that cannot beat the pick is never measured.
	//
	// Conflict resolution is folded into the same pass: m.winner tracks,
	// per visit, the geographically closest claimant so far; the strict
	// < keeps the earliest checkin on a distance tie.
	honest := 0
	for ci, c := range checkins {
		cl := claim{visit: -1}
		var bestDT time.Duration
		lo, hi := m.win.Span(c.T, p.Beta)
		for k := lo; k < hi; k++ {
			vi := m.win.Visit(k)
			dt := vs[vi].DeltaT(c.T)
			if dt >= p.Beta || (cl.visit >= 0 && (dt > bestDT || (dt == bestDT && vi > cl.visit))) {
				continue
			}
			if d := geo.Distance(c.Loc, vs[vi].Loc); d <= p.Alpha {
				cl, bestDT = claim{vi, d}, dt
			}
		}
		m.claims[ci] = cl
		if cl.visit < 0 {
			continue
		}
		switch w := m.winner[cl.visit]; {
		case w < 0:
			m.winner[cl.visit] = int32(ci)
			honest++
		case cl.dist < m.claims[w].dist:
			m.winner[cl.visit] = int32(ci)
		}
	}

	res.Matches = reuse(res.Matches, honest)[:0]
	res.ExtraneousIdx = reuse(res.ExtraneousIdx, len(checkins)-honest)[:0]
	res.MissingIdx = reuse(res.MissingIdx, len(vs)-honest)[:0]
	res.honestBits = reuse(res.honestBits, len(checkins))
	res.visitBits = reuse(res.visitBits, len(vs))
	clear(res.visitBits)
	for ci, c := range checkins {
		vi := m.claims[ci].visit
		res.honestBits[ci] = vi >= 0 && m.winner[vi] == int32(ci)
		if !res.honestBits[ci] {
			res.ExtraneousIdx = append(res.ExtraneousIdx, ci)
			continue
		}
		res.Matches = append(res.Matches, Match{CheckinIdx: ci, VisitIdx: vi, DeltaT: vs[vi].DeltaT(c.T), Dist: m.claims[ci].dist})
		res.visitBits[vi] = true
	}
	for vi := range vs {
		if !res.visitBits[vi] {
			res.MissingIdx = append(res.MissingIdx, vi)
		}
	}
	return nil
}

// reuse returns s resized to n, allocating only when its capacity is
// short. Elements keep whatever values they held.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// VisitWindow is a time index over one user's visits. Span narrows the
// question "which visits lie within d of time t" (Visit.DeltaT(t) < d)
// to a short run of candidates found by binary search, so matching and
// the superfluous test visit only the few stays around a checkin.
//
// Visits in start order whose ends never decrease — what internal/visits
// produces — are searched in place, with no copy and no sort. Any other
// list (unsorted, nested, or with End < Start) is searched through a
// start-ordered permutation and a running maximum of the ends, which
// keeps every candidate inside the run. The zero value is ready for
// Reset; a VisitWindow is not safe for concurrent use.
type VisitWindow struct {
	vs []trace.Visit
	// order lists visit indices by (Start, index), and reach[k] is the
	// latest Start or End among order[:k+1]. Both are empty when vs is
	// searched in place.
	order []int32
	reach []int64
}

// Reset indexes vs, reusing the window's scratch. The window reads vs
// until the next Reset.
func (w *VisitWindow) Reset(vs []trace.Visit) {
	w.vs, w.order, w.reach = vs, w.order[:0], w.reach[:0]
	i := 0
	for i < len(vs) && vs[i].Start <= vs[i].End &&
		(i == 0 || (vs[i].Start >= vs[i-1].Start && vs[i].End >= vs[i-1].End)) {
		i++
	}
	if i == len(vs) {
		return // searched in place
	}
	for i := range vs {
		w.order = append(w.order, int32(i))
	}
	slices.SortStableFunc(w.order, func(a, b int32) int { return cmp.Compare(vs[a].Start, vs[b].Start) })
	reach := int64(math.MinInt64)
	for _, vi := range w.order {
		reach = max(reach, vs[vi].Start, vs[vi].End)
		w.reach = append(w.reach, reach)
	}
}

// Span returns the run [lo, hi) of window positions holding every visit
// within d of t. The run may also hold visits that end too early, so
// callers map each position to its visit index with Visit and confirm
// it with Visit.DeltaT.
func (w *VisitWindow) Span(t int64, d time.Duration) (lo, hi int) {
	if d <= 0 {
		return 0, 0
	}
	// DeltaT counts whole seconds, so DeltaT(t) < d exactly when the gap
	// in seconds is below s = ceil(d / 1s): Start < t+s and End > t-s.
	s := int64(d / time.Second)
	if d%time.Second != 0 {
		s++
	}
	hi = sort.Search(len(w.vs), func(k int) bool { return w.vs[w.Visit(k)].Start >= t+s })
	lo = sort.Search(hi, func(k int) bool {
		if len(w.reach) == 0 {
			return w.vs[k].End > t-s
		}
		return w.reach[k] > t-s
	})
	return lo, hi
}

// Visit returns the index into the visit list of window position k.
func (w *VisitWindow) Visit(k int) int {
	if len(w.order) == 0 {
		return k
	}
	return int(w.order[k])
}
