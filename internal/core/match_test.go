package core

import (
	"testing"
	"testing/quick"
	"time"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

var base = geo.LatLon{Lat: 34.4208, Lon: -119.6982}

// at returns a point dist meters east of base.
func at(dist float64) geo.LatLon { return geo.Destination(base, 90, dist) }

// visit builds a visit at the given offset meters, spanning [start, end]
// minutes.
func visit(dist float64, startMin, endMin int64) trace.Visit {
	return trace.Visit{Start: startMin * 60, End: endMin * 60, Loc: at(dist), POIID: -1}
}

// checkin builds a checkin at the given offset meters and minute.
func checkin(dist float64, min int64) trace.Checkin {
	return trace.Checkin{T: min * 60, Loc: at(dist)}
}

func mustMatch(t *testing.T, cks trace.CheckinTrace, vs []trace.Visit) *Result {
	t.Helper()
	res, err := MatchUser(cks, vs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMatchSimple(t *testing.T) {
	// One checkin during one visit at the same place: honest.
	res := mustMatch(t,
		trace.CheckinTrace{checkin(0, 15)},
		[]trace.Visit{visit(0, 10, 30)},
	)
	if res.Honest() != 1 || res.Extraneous() != 0 || res.Missing() != 0 {
		t.Fatalf("partition = %d/%d/%d", res.Honest(), res.Extraneous(), res.Missing())
	}
	if res.Matches[0].DeltaT != 0 {
		t.Errorf("DeltaT = %v, want 0 (checkin inside visit)", res.Matches[0].DeltaT)
	}
}

func TestMatchSpatialThreshold(t *testing.T) {
	// Checkin 600 m away exceeds alpha = 500 m: extraneous.
	res := mustMatch(t,
		trace.CheckinTrace{checkin(600, 15)},
		[]trace.Visit{visit(0, 10, 30)},
	)
	if res.Honest() != 0 || res.Extraneous() != 1 || res.Missing() != 1 {
		t.Fatalf("partition = %d/%d/%d", res.Honest(), res.Extraneous(), res.Missing())
	}
	// 400 m is inside alpha: honest.
	res = mustMatch(t,
		trace.CheckinTrace{checkin(400, 15)},
		[]trace.Visit{visit(0, 10, 30)},
	)
	if res.Honest() != 1 {
		t.Fatalf("400m checkin not matched")
	}
}

func TestMatchTemporalThreshold(t *testing.T) {
	// Checkin 29 minutes after the visit ends: inside beta.
	res := mustMatch(t,
		trace.CheckinTrace{checkin(0, 59)},
		[]trace.Visit{visit(0, 10, 30)},
	)
	if res.Honest() != 1 {
		t.Fatal("29-minute-late checkin not matched")
	}
	if got := res.Matches[0].DeltaT; got != 29*time.Minute {
		t.Errorf("DeltaT = %v, want 29m", got)
	}
	// 31 minutes after: outside beta.
	res = mustMatch(t,
		trace.CheckinTrace{checkin(0, 61)},
		[]trace.Visit{visit(0, 10, 30)},
	)
	if res.Honest() != 0 {
		t.Fatal("31-minute-late checkin matched")
	}
}

func TestIntervalDeltaT(t *testing.T) {
	v := visit(0, 10, 30)
	tests := []struct {
		tc   int64 // minutes
		want time.Duration
	}{
		{10, 0}, {20, 0}, {30, 0}, // inside the stay
		{5, 5 * time.Minute},   // before start
		{40, 10 * time.Minute}, // after end
	}
	for _, tc := range tests {
		if got := v.DeltaT(tc.tc * 60); got != tc.want {
			t.Errorf("DeltaT(%d min) = %v, want %v", tc.tc, got, tc.want)
		}
	}
}

func TestMatchClosestInTimeWins(t *testing.T) {
	// Two visits within alpha; the temporally closer one must match.
	res := mustMatch(t,
		trace.CheckinTrace{checkin(0, 45)},
		[]trace.Visit{
			visit(100, 10, 20), // 25 min away
			visit(200, 50, 60), // 5 min away
		},
	)
	if res.Honest() != 1 {
		t.Fatal("no match")
	}
	if res.Matches[0].VisitIdx != 1 {
		t.Fatalf("matched visit %d, want 1 (temporally closest)", res.Matches[0].VisitIdx)
	}
}

func TestMatchGeographicTieBreak(t *testing.T) {
	// Two checkins claim the same visit; the geographically closer one
	// keeps it, the other becomes extraneous — the §4.1 dedup rule that
	// exposes superfluous checkins.
	res := mustMatch(t,
		trace.CheckinTrace{
			checkin(10, 15),  // 10 m from the visit
			checkin(300, 16), // 300 m away (superfluous)
		},
		[]trace.Visit{visit(0, 10, 30)},
	)
	if res.Honest() != 1 || res.Extraneous() != 1 {
		t.Fatalf("partition = %d/%d", res.Honest(), res.Extraneous())
	}
	if res.Matches[0].CheckinIdx != 0 {
		t.Fatalf("matched checkin %d, want 0 (geographically closest)", res.Matches[0].CheckinIdx)
	}
}

func TestMatchDeltaTTieBreak(t *testing.T) {
	// Two visits exactly equidistant in time from the checkin (10 min on
	// each side), both within alpha: the tie must go to the lowest visit
	// index, not to whichever the spatial index happened to scan first.
	cks := trace.CheckinTrace{checkin(0, 30)}
	vs := []trace.Visit{
		visit(100, 10, 20), // ends 10 min before the checkin
		visit(200, 40, 50), // starts 10 min after
	}
	res := mustMatch(t, cks, vs)
	if res.Honest() != 1 {
		t.Fatal("no match")
	}
	if res.Matches[0].VisitIdx != 0 {
		t.Fatalf("tie matched visit %d, want 0 (lowest index)", res.Matches[0].VisitIdx)
	}
	// Swapping the visit order flips which stay is index 0; the winner
	// must follow the index, proving the tie-break is real.
	swapped := []trace.Visit{vs[1], vs[0]}
	res = mustMatch(t, cks, swapped)
	if res.Matches[0].VisitIdx != 0 {
		t.Fatalf("swapped tie matched visit %d, want 0", res.Matches[0].VisitIdx)
	}
	if res.Matches[0].Dist != geo.Distance(cks[0].Loc, swapped[0].Loc) {
		t.Error("match distance not recomputed for the winning visit")
	}
}

func TestMatchEachCheckinAtMostOneVisit(t *testing.T) {
	// One checkin, several nearby visits: exactly one match.
	res := mustMatch(t,
		trace.CheckinTrace{checkin(0, 25)},
		[]trace.Visit{visit(50, 10, 20), visit(100, 22, 28), visit(150, 30, 40)},
	)
	if res.Honest() != 1 {
		t.Fatalf("honest = %d, want 1", res.Honest())
	}
	if res.Missing() != 2 {
		t.Fatalf("missing = %d, want 2", res.Missing())
	}
}

func TestMatchEmptyInputs(t *testing.T) {
	res := mustMatch(t, nil, nil)
	if res.Honest() != 0 || res.Extraneous() != 0 || res.Missing() != 0 {
		t.Fatal("empty inputs produced matches")
	}
	res = mustMatch(t, trace.CheckinTrace{checkin(0, 5)}, nil)
	if res.Extraneous() != 1 {
		t.Fatal("checkin with no visits not extraneous")
	}
	res = mustMatch(t, nil, []trace.Visit{visit(0, 0, 10)})
	if res.Missing() != 1 {
		t.Fatal("visit with no checkins not missing")
	}
}

func TestMatchInvalidParams(t *testing.T) {
	if _, err := MatchUser(nil, nil, Params{Alpha: 0, Beta: time.Minute}); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := MatchUser(nil, nil, Params{Alpha: 500, Beta: 0}); err == nil {
		t.Error("beta=0 accepted")
	}
}

// TestMatchPartitionInvariants checks, over random inputs, the structural
// invariants of the matching: every checkin is honest xor extraneous,
// every visit is matched xor missing, and no checkin or visit appears in
// two matches.
func TestMatchPartitionInvariants(t *testing.T) {
	err := quick.Check(func(seed uint32) bool {
		s := rng.New(uint64(seed))
		nCk := s.Intn(40)
		nVis := s.Intn(40)
		cks := make(trace.CheckinTrace, 0, nCk)
		var tcur int64
		for i := 0; i < nCk; i++ {
			tcur += s.Int63n(1800)
			cks = append(cks, trace.Checkin{T: tcur, Loc: at(s.Range(0, 3000))})
		}
		vs := make([]trace.Visit, 0, nVis)
		tcur = 0
		for i := 0; i < nVis; i++ {
			start := tcur + s.Int63n(1800)
			end := start + 360 + s.Int63n(3600)
			tcur = end
			vs = append(vs, trace.Visit{Start: start, End: end, Loc: at(s.Range(0, 3000)), POIID: -1})
		}
		res, err := MatchUser(cks, vs, DefaultParams())
		if err != nil {
			return false
		}
		if res.Honest()+res.Extraneous() != len(cks) {
			return false
		}
		if res.Honest()+res.Missing() != len(vs) {
			return false
		}
		seenCk := map[int]bool{}
		seenVis := map[int]bool{}
		for _, m := range res.Matches {
			if seenCk[m.CheckinIdx] || seenVis[m.VisitIdx] {
				return false
			}
			seenCk[m.CheckinIdx] = true
			seenVis[m.VisitIdx] = true
			if m.Dist > DefaultParams().Alpha {
				return false
			}
			if m.DeltaT >= DefaultParams().Beta {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepParamsMonotone(t *testing.T) {
	// Honest count must be monotone non-decreasing in both alpha and
	// beta: looser thresholds can only add matches.
	s := rng.New(77)
	var cks trace.CheckinTrace
	var vs []trace.Visit
	var tcur int64
	for i := 0; i < 60; i++ {
		tcur += s.Int63n(2400)
		cks = append(cks, trace.Checkin{T: tcur, Loc: at(s.Range(0, 2000))})
	}
	tcur = 0
	for i := 0; i < 60; i++ {
		start := tcur + s.Int63n(1200)
		end := start + 400 + s.Int63n(2000)
		tcur = end
		vs = append(vs, trace.Visit{Start: start, End: end, Loc: at(s.Range(0, 2000)), POIID: -1})
	}
	outs := []UserOutcome{{
		User:   &trace.User{Checkins: cks},
		Visits: vs,
		Match:  &Result{},
	}}
	alphas := []float64{100, 250, 500, 1000}
	betas := []time.Duration{5 * time.Minute, 15 * time.Minute, 30 * time.Minute, time.Hour}
	pts, err := SweepParams(outs, alphas, betas)
	if err != nil {
		t.Fatal(err)
	}
	get := func(a float64, b time.Duration) int {
		for _, p := range pts {
			if p.Alpha == a && p.Beta == b {
				return p.Honest
			}
		}
		t.Fatalf("missing sweep point %g/%v", a, b)
		return 0
	}
	for bi := range betas {
		for ai := 1; ai < len(alphas); ai++ {
			if get(alphas[ai], betas[bi]) < get(alphas[ai-1], betas[bi]) {
				t.Errorf("honest count decreased with alpha at beta=%v", betas[bi])
			}
		}
	}
	for ai := range alphas {
		for bi := 1; bi < len(betas); bi++ {
			if get(alphas[ai], betas[bi]) < get(alphas[ai], betas[bi-1]) {
				t.Errorf("honest count decreased with beta at alpha=%g", alphas[ai])
			}
		}
	}
}

// TestSweepParamsMatchesPerCellMatching pins the scratch reuse: the
// sweep (one Matcher and one Result across every user and cell) must
// produce exactly the counts of running MatchUser from scratch for every
// cell.
func TestSweepParamsMatchesPerCellMatching(t *testing.T) {
	ds, err := synthDataset(t)
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := NewValidator().ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	alphas := []float64{125, 500, 2000}
	betas := []time.Duration{10 * time.Minute, 30 * time.Minute, time.Hour}
	pts, err := SweepParams(outs, alphas, betas)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(alphas)*len(betas) {
		t.Fatalf("%d sweep points, want %d", len(pts), len(alphas)*len(betas))
	}
	i := 0
	for _, a := range alphas {
		for _, b := range betas {
			if pts[i].Alpha != a || pts[i].Beta != b {
				t.Fatalf("point %d is (%g, %v), want (%g, %v)", i, pts[i].Alpha, pts[i].Beta, a, b)
			}
			honest := 0
			for _, o := range outs {
				res, err := MatchUser(o.User.Checkins, o.Visits, Params{Alpha: a, Beta: b})
				if err != nil {
					t.Fatal(err)
				}
				honest += res.Honest()
			}
			if pts[i].Honest != honest {
				t.Fatalf("sweep(%g, %v) = %d honest, per-cell matching = %d",
					a, b, pts[i].Honest, honest)
			}
			i++
		}
	}
	// Degenerate grids yield no points.
	if pts, err := SweepParams(outs, nil, betas); err != nil || pts != nil {
		t.Errorf("empty alphas: %v, %v", pts, err)
	}
}

// synthDataset generates a small dataset for sweep tests.
func synthDataset(t *testing.T) (*trace.Dataset, error) {
	t.Helper()
	return synth.Generate(synth.PrimaryConfig().Scale(0.02), rng.New(31))
}

func TestValidatorPipeline(t *testing.T) {
	// Hand-built dataset: a user visits POI 0 for 20 minutes and checks
	// in there, plus one remote checkin. The validator must detect the
	// visit, match the honest checkin and flag the remote one.
	pois := []poi.POI{
		{ID: 0, Name: "Cafe", Category: poi.Food, Loc: at(0)},
		{ID: 1, Name: "Bar", Category: poi.Nightlife, Loc: at(5000)},
	}
	var gps trace.GPSTrace
	for m := int64(0); m <= 20; m++ {
		gps = append(gps, trace.GPSPoint{T: m * 60, Loc: at(3)})
	}
	u := &trace.User{
		ID:   0,
		Days: 1,
		GPS:  gps,
		Checkins: trace.CheckinTrace{
			{T: 300, POIID: 0, Category: poi.Food, Loc: at(0), Truth: trace.LabelHonest},
			{T: 600, POIID: 1, Category: poi.Nightlife, Loc: at(5000), Truth: trace.LabelRemote},
		},
	}
	ds := &trace.Dataset{Name: "test", POIs: pois, Users: []*trace.User{u}}
	outs, part, err := NewValidator().ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	if part.Honest != 1 || part.Extraneous != 1 {
		t.Fatalf("partition %+v", part)
	}
	if len(outs[0].Visits) != 1 {
		t.Fatalf("visits = %d, want 1", len(outs[0].Visits))
	}
	if outs[0].Visits[0].POIID != 0 {
		t.Errorf("visit snapped to POI %d, want 0", outs[0].Visits[0].POIID)
	}
	sc, err := ScoreAgainstTruth(outs)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Accuracy != 1 {
		t.Errorf("accuracy %.2f, want 1", sc.Accuracy)
	}
}

func TestScoreAgainstTruthNoLabels(t *testing.T) {
	outs := []UserOutcome{{
		User:  &trace.User{Checkins: trace.CheckinTrace{{T: 1}}},
		Match: &Result{},
	}}
	if _, err := ScoreAgainstTruth(outs); err == nil {
		t.Error("unlabeled data accepted")
	}
}

func TestPartitionRatios(t *testing.T) {
	p := Partition{Checkins: 100, Visits: 200, Honest: 25, Extraneous: 75, Missing: 175}
	if p.ExtraneousRatio() != 0.75 {
		t.Errorf("extraneous ratio %g", p.ExtraneousRatio())
	}
	if p.CoverageRatio() != 0.125 {
		t.Errorf("coverage %g", p.CoverageRatio())
	}
	if p.MissingRatio() != 0.875 {
		t.Errorf("missing ratio %g", p.MissingRatio())
	}
	var zero Partition
	if zero.ExtraneousRatio() != 0 || zero.CoverageRatio() != 0 || zero.MissingRatio() != 0 {
		t.Error("zero partition ratios not zero")
	}
}
