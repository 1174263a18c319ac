package classify

import (
	"fmt"
	"math"
	"testing"
	"time"

	"geosocial/internal/core"
	"geosocial/internal/geo"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
	"geosocial/internal/visits"
)

// The reference validator: §4.1 matching and §5.1 classification written
// as directly as the rules read, with no time window, no spatial index
// and no shortcut, so that every case below can hold core.MatchUser and
// ClassifyUser to the rules rather than to themselves.

// refMatch returns, per checkin, the index of the visit it matches or -1.
// Step 1 and 2 measure every visit: the candidates are the visits within
// α, and the one closest in time wins if its Δt is below β, the lowest
// index on a tie. A visit claimed by several checkins stays with the
// geographically closest, the earliest checkin on a tie.
func refMatch(cks trace.CheckinTrace, vs []trace.Visit, p core.Params) []int {
	claim := make([]int, len(cks))
	dist := make([]float64, len(cks))
	for ci, c := range cks {
		claim[ci] = -1
		var bestDT time.Duration
		for vi, v := range vs {
			d, dt := geo.Distance(c.Loc, v.Loc), v.DeltaT(c.T)
			if d > p.Alpha || dt >= p.Beta {
				continue
			}
			if claim[ci] < 0 || dt < bestDT {
				claim[ci], bestDT, dist[ci] = vi, dt, d
			}
		}
	}
	match := append([]int(nil), claim...)
	for ci := range cks {
		for cj := range cks {
			if cj != ci && claim[ci] >= 0 && claim[cj] == claim[ci] &&
				(dist[cj] < dist[ci] || (dist[cj] == dist[ci] && cj < ci)) {
				match[ci] = -1
			}
		}
	}
	return match
}

// refClassify applies ClassifyUser's documented §5.1 rules to the
// reference match. Position and speed come from the shared GPS
// estimators (gpsAt, visits.SpeedAt); what the reference re-derives is
// the match and the superfluous test, which production answers from a
// time window.
func refClassify(u *trace.User, vs []trace.Visit, match []int, p Params) []Kind {
	kinds := make([]Kind, len(u.Checkins))
	for ci, c := range u.Checkins {
		if match[ci] >= 0 {
			kinds[ci] = Honest
			continue
		}
		pos, ok := gpsAt(u.GPS, c.T, p.SpeedGap)
		if !ok {
			kinds[ci] = Other
			continue
		}
		if geo.Distance(pos, c.Loc) > p.RemoteDist {
			kinds[ci] = Remote
			continue
		}
		if spd, ok := visits.SpeedAt(u.GPS, c.T, p.SpeedGap); ok && spd > p.DrivebySpeed {
			kinds[ci] = Driveby
			continue
		}
		kinds[ci] = Other
		for cj, vi := range match {
			if cj != ci && vi >= 0 &&
				geo.Distance(vs[vi].Loc, c.Loc) <= p.SuperfluousDist &&
				vs[vi].DeltaT(c.T) < p.SuperfluousWindow {
				kinds[ci] = Superfluous
			}
		}
	}
	return kinds
}

// checkReference compares production's match and kind per checkin with
// the reference's and returns how many checkins matched.
func checkReference(t *testing.T, name string, u *trace.User, vs []trace.Visit, mp core.Params) int {
	t.Helper()
	res, err := core.MatchUser(u.Checkins, vs, mp)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cp := DefaultParams()
	cl, err := ClassifyUser(core.UserOutcome{User: u, Visits: vs, Match: res}, cp)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := make([]int, len(u.Checkins))
	for i := range got {
		got[i] = -1
	}
	for _, m := range res.Matches {
		got[m.CheckinIdx] = m.VisitIdx
	}
	want := refMatch(u.Checkins, vs, mp)
	wantKinds := refClassify(u, vs, want, cp)
	honest := 0
	for ci := range u.Checkins {
		if got[ci] != want[ci] || cl.Kinds[ci] != wantKinds[ci] {
			t.Errorf("%s: checkin %d: production matched visit %d (%v), reference %d (%v)",
				name, ci, got[ci], cl.Kinds[ci], want[ci], wantKinds[ci])
		}
		if want[ci] >= 0 {
			honest++
		}
	}
	return honest
}

// stayingUser is a user parked at loc over [from, to] with a fix a
// minute, holding the given checkins.
func stayingUser(loc geo.LatLon, from, to int64, cks trace.CheckinTrace) *trace.User {
	var gps trace.GPSTrace
	for ts := from; ts <= to; ts += 60 {
		gps = append(gps, trace.GPSPoint{T: ts, Loc: loc})
	}
	return &trace.User{Days: 1, GPS: gps, Checkins: cks}
}

// randomUser builds a user whose visits, checkins and fixes crowd one
// few-kilometre area, so many checkins have several candidates near α
// and β. Visits are in start order and disjoint, as visits.Detect emits
// them.
func randomUser(s *rng.Stream) (*trace.User, []trace.Visit) {
	var vs []trace.Visit
	var tcur int64
	for i := s.Intn(40); i > 0; i-- {
		start := tcur + s.Int63n(2400)
		end := start + s.Int63n(3600)
		tcur = end + 1
		vs = append(vs, trace.Visit{Start: start, End: end, Loc: at(s.Range(0, 1500)), POIID: -1})
	}
	u := &trace.User{Days: 1}
	var tc int64
	for i := s.Intn(40); i > 0; i-- {
		if s.Bool(0.9) { // else repeat the previous timestamp
			tc += s.Int63n(2400)
		}
		loc := at(s.Range(0, 1500))
		if len(vs) > 0 && s.Bool(0.5) {
			loc = geo.Destination(vs[s.Intn(len(vs))].Loc, s.Range(0, 360), s.Range(0, 700))
		}
		u.Checkins = append(u.Checkins, trace.Checkin{T: tc, Loc: loc})
	}
	pos := at(s.Range(0, 1500))
	for ts := int64(-600); ts < max(tc, tcur)+600; ts += 30 + s.Int63n(600) {
		pos = geo.Destination(pos, s.Range(0, 360), s.Range(0, 400))
		u.GPS = append(u.GPS, trace.GPSPoint{T: ts, Loc: pos})
	}
	return u, vs
}

// shuffled returns vs in a random order.
func shuffled(s *rng.Stream, vs []trace.Visit) []trace.Visit {
	out := make([]trace.Visit, len(vs))
	for i, j := range s.Perm(len(vs)) {
		out[i] = vs[j]
	}
	return out
}

// TestReferenceRandomUsers compares production with the reference on
// random users, with their visits in detector order and shuffled, and
// on a synthetic cohort whose visits come from the real detector.
func TestReferenceRandomUsers(t *testing.T) {
	s := rng.New(2013)
	mp := core.DefaultParams()
	honest := 0
	for i := 0; i < 300; i++ {
		u, vs := randomUser(s)
		honest += checkReference(t, fmt.Sprintf("random user %d", i), u, vs, mp)
		checkReference(t, fmt.Sprintf("random user %d shuffled", i), u, shuffled(s, vs), mp)
	}
	if honest == 0 {
		t.Fatal("random users produced no match: the comparison tests nothing")
	}

	ds, err := synth.Generate(synth.PrimaryConfig().Scale(0.02), rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := core.NewValidator().ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		checkReference(t, fmt.Sprintf("synthetic user %d", o.User.ID), o.User, o.Visits, mp)
	}
}

// TestReferenceOverlappingVisits compares production with the reference
// on random users whose visits overlap, nest, share start times and are
// listed in no particular order.
func TestReferenceOverlappingVisits(t *testing.T) {
	s := rng.New(17)
	mp := core.DefaultParams()
	for i := 0; i < 300; i++ {
		u, _ := randomUser(s)
		var vs []trace.Visit
		for j := s.Intn(30); j > 0; j-- {
			start := s.Int63n(40 * 3600)
			if len(vs) > 0 && s.Bool(0.2) {
				start = vs[s.Intn(len(vs))].Start
			}
			vs = append(vs, trace.Visit{Start: start, End: start + s.Int63n(4*3600), Loc: at(s.Range(0, 1500)), POIID: -1})
		}
		checkReference(t, fmt.Sprintf("overlapping user %d", i), u, vs, mp)
	}
}

// TestReferenceEdgeCases compares production with the reference on
// hand-built users at the edges of the rules, and pins the verdicts the
// rules give there.
func TestReferenceEdgeCases(t *testing.T) {
	mp := core.DefaultParams()
	beta := int64(mp.Beta / time.Second)
	type tc struct {
		name  string
		u     *trace.User
		vs    []trace.Visit
		p     core.Params
		match int // checkins the rules match
	}
	var cases []tc
	add := func(name string, u *trace.User, vs []trace.Visit, p core.Params, match int) {
		cases = append(cases, tc{name, u, vs, p, match})
	}

	// Across the antimeridian: 0.002° of longitude at the equator is
	// 222 m, inside α.
	east, west := geo.LatLon{Lat: 0, Lon: 179.999}, geo.LatLon{Lat: 0, Lon: -179.999}
	add("antimeridian", stayingUser(east, 0, 3600, trace.CheckinTrace{{T: 900, Loc: west}}),
		[]trace.Visit{{Start: 0, End: 1800, Loc: east, POIID: -1}}, mp, 1)
	add("antimeridian, visits on both sides", stayingUser(west, 0, 7200, trace.CheckinTrace{{T: 900, Loc: west}, {T: 4500, Loc: east}}),
		[]trace.Visit{{Start: 0, End: 1800, Loc: east, POIID: -1}, {Start: 3600, End: 5400, Loc: west, POIID: -1}}, mp, 2)

	// Near the poles, where a degree of longitude is a few metres and
	// opposite longitudes are close.
	for _, lat := range []float64{89.9999, -89.9995, 90} {
		a, b := geo.LatLon{Lat: lat, Lon: 0}, geo.LatLon{Lat: lat, Lon: 180}
		c := geo.LatLon{Lat: lat, Lon: -90}
		add(fmt.Sprintf("pole lat %g", lat),
			stayingUser(a, 0, 7200, trace.CheckinTrace{{T: 600, Loc: b}, {T: 700, Loc: c}, {T: 4000, Loc: a}}),
			[]trace.Visit{{Start: 0, End: 1200, Loc: a, POIID: -1}, {Start: 3600, End: 4200, Loc: b, POIID: -1}}, mp, 2)
	}

	// Coincident timestamps and zero-length visits: three checkins at
	// one instant claim one point visit, and the closest keeps it; two
	// point visits at the same instant tie on ΔT, and the lower index
	// wins.
	add("coincident checkins, point visit",
		stayingUser(at(0), 0, 3600, trace.CheckinTrace{{T: 1000, Loc: at(200)}, {T: 1000, Loc: at(50)}, {T: 1000, Loc: at(50)}}),
		[]trace.Visit{{Start: 1000, End: 1000, Loc: at(0), POIID: -1}}, mp, 1)
	add("coincident point visits",
		stayingUser(at(0), 0, 3600, trace.CheckinTrace{{T: 900, Loc: at(0)}, {T: 1100, Loc: at(0)}}),
		[]trace.Visit{{Start: 1000, End: 1000, Loc: at(300), POIID: -1}, {Start: 1000, End: 1000, Loc: at(100), POIID: -1}}, mp, 1)

	// α exactly, and one ulp either side.
	v := trace.Visit{Start: 0, End: 1800, Loc: at(0), POIID: -1}
	ck := trace.CheckinTrace{{T: 900, Loc: at(400)}}
	d := geo.Distance(ck[0].Loc, v.Loc)
	for _, a := range []struct {
		name  string
		alpha float64
		match int
	}{{"α = d", d, 1}, {"α = d - 1 ulp", math.Nextafter(d, 0), 0}, {"α = d + 1 ulp", math.Nextafter(d, math.Inf(1)), 1}} {
		add(a.name, stayingUser(at(0), 0, 3600, ck), []trace.Visit{v}, core.Params{Alpha: a.alpha, Beta: mp.Beta}, a.match)
	}

	// Δt = β, and one second either side, after the visit and before
	// it; then a β that is not a whole number of seconds.
	for _, off := range []struct {
		name  string
		gap   int64
		match int
	}{{"Δt = β", beta, 0}, {"Δt = β - 1 s", beta - 1, 1}, {"Δt = β + 1 s", beta + 1, 0}} {
		add(off.name+" after", stayingUser(at(0), 0, 7200, trace.CheckinTrace{{T: 1800 + off.gap, Loc: at(0)}}),
			[]trace.Visit{{Start: 0, End: 1800, Loc: at(0), POIID: -1}}, mp, off.match)
		add(off.name+" before", stayingUser(at(0), 0, 9000, trace.CheckinTrace{{T: 5400 - off.gap, Loc: at(0)}}),
			[]trace.Visit{{Start: 5400, End: 7200, Loc: at(0), POIID: -1}}, mp, off.match)
	}
	halfSecond := core.Params{Alpha: mp.Alpha, Beta: mp.Beta + 500*time.Millisecond}
	add("Δt = β - 0.5 s", stayingUser(at(0), 0, 7200, trace.CheckinTrace{{T: 1800 + beta, Loc: at(0)}}),
		[]trace.Visit{{Start: 0, End: 1800, Loc: at(0), POIID: -1}}, halfSecond, 1)
	add("Δt = β + 0.5 s", stayingUser(at(0), 0, 7200, trace.CheckinTrace{{T: 1800 + beta + 1, Loc: at(0)}}),
		[]trace.Visit{{Start: 0, End: 1800, Loc: at(0), POIID: -1}}, halfSecond, 0)

	// Hand-built visit lists out of detector order: reversed, nested (a
	// long stay holding a short one) and overlapping. A superfluous
	// checkin loses its visit to a closer one in each.
	cks := trace.CheckinTrace{{T: 1000, Loc: at(10)}, {T: 1100, Loc: at(300)}, {T: 9000, Loc: at(2000)}}
	seq := []trace.Visit{
		{Start: 600, End: 1500, Loc: at(0), POIID: -1},
		{Start: 8000, End: 9500, Loc: at(2000), POIID: -1},
	}
	add("reversed", stayingUser(at(0), 0, 3600, cks), []trace.Visit{seq[1], seq[0]}, mp, 2)
	add("nested", stayingUser(at(0), 0, 3600, cks), []trace.Visit{
		{Start: 0, End: 20000, Loc: at(2000), POIID: -1}, seq[0], seq[1],
	}, mp, 2)
	add("overlapping", stayingUser(at(0), 0, 3600, cks), []trace.Visit{
		{Start: 500, End: 8500, Loc: at(2000), POIID: -1}, seq[0], {Start: 1200, End: 9400, Loc: at(20), POIID: -1},
	}, mp, 2)

	for _, c := range cases {
		if got := checkReference(t, c.name, c.u, c.vs, c.p); got != c.match {
			t.Errorf("%s: reference matches %d checkins, the rules say %d", c.name, got, c.match)
		}
	}
}
