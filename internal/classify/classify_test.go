package classify

import (
	"testing"
	"time"

	"geosocial/internal/core"
	"geosocial/internal/geo"
	"geosocial/internal/trace"
)

var base = geo.LatLon{Lat: 34.4208, Lon: -119.6982}

func at(dist float64) geo.LatLon { return geo.Destination(base, 90, dist) }

// buildOutcome constructs a UserOutcome with a stationary user at offset
// userPos for the whole window, one detected visit there, and the given
// checkins; the matcher runs for real.
func buildOutcome(t *testing.T, userPos float64, cks trace.CheckinTrace) core.UserOutcome {
	t.Helper()
	var gps trace.GPSTrace
	for m := int64(0); m <= 60; m++ {
		gps = append(gps, trace.GPSPoint{T: m * 60, Loc: at(userPos)})
	}
	vs := []trace.Visit{{Start: 0, End: 3600, Loc: at(userPos), POIID: -1}}
	res, err := core.MatchUser(cks, vs, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	u := &trace.User{GPS: gps, Checkins: cks, Days: 1}
	return core.UserOutcome{User: u, Visits: vs, Match: res}
}

func classifyOne(t *testing.T, o core.UserOutcome) *Classification {
	t.Helper()
	cl, err := ClassifyUser(o, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestClassifyHonest(t *testing.T) {
	o := buildOutcome(t, 0, trace.CheckinTrace{{T: 1800, Loc: at(0)}})
	cl := classifyOne(t, o)
	if cl.Kinds[0] != Honest {
		t.Fatalf("kind = %v, want honest", cl.Kinds[0])
	}
}

func TestClassifyRemote(t *testing.T) {
	// Checkin 5 km from the user's actual position.
	o := buildOutcome(t, 0, trace.CheckinTrace{{T: 1800, Loc: at(5000)}})
	cl := classifyOne(t, o)
	if cl.Kinds[0] != Remote {
		t.Fatalf("kind = %v, want remote", cl.Kinds[0])
	}
}

func TestClassifySuperfluous(t *testing.T) {
	// Honest checkin at the visit plus a second checkin at a venue 300 m
	// away while physically at the visit: the second loses the dedup and
	// is superfluous.
	o := buildOutcome(t, 0, trace.CheckinTrace{
		{T: 1700, Loc: at(0)},
		{T: 1800, Loc: at(300)},
	})
	cl := classifyOne(t, o)
	if cl.Kinds[0] != Honest {
		t.Fatalf("kinds[0] = %v, want honest", cl.Kinds[0])
	}
	if cl.Kinds[1] != Superfluous {
		t.Fatalf("kinds[1] = %v, want superfluous", cl.Kinds[1])
	}
}

func TestClassifyDriveby(t *testing.T) {
	// Moving user (12 m/s east), no visits; checkin at a venue near the
	// route midpoint.
	var gps trace.GPSTrace
	for m := int64(0); m <= 20; m++ {
		gps = append(gps, trace.GPSPoint{T: m * 60, Loc: at(float64(m) * 720)})
	}
	cks := trace.CheckinTrace{{T: 600, Loc: at(7300)}}
	res, err := core.MatchUser(cks, nil, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o := core.UserOutcome{
		User:  &trace.User{GPS: gps, Checkins: cks, Days: 1},
		Match: res,
	}
	cl := classifyOne(t, o)
	if cl.Kinds[0] != Driveby {
		t.Fatalf("kind = %v, want driveby", cl.Kinds[0])
	}
}

func TestClassifyOtherShortStop(t *testing.T) {
	// Stationary checkin near the user with no qualifying visit around:
	// no distinctive feature.
	var gps trace.GPSTrace
	for m := int64(0); m <= 20; m++ {
		gps = append(gps, trace.GPSPoint{T: m * 60, Loc: at(0)})
	}
	cks := trace.CheckinTrace{{T: 600, Loc: at(100)}}
	res, err := core.MatchUser(cks, nil, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o := core.UserOutcome{
		User:  &trace.User{GPS: gps, Checkins: cks, Days: 1},
		Match: res,
	}
	cl := classifyOne(t, o)
	if cl.Kinds[0] != Other {
		t.Fatalf("kind = %v, want other", cl.Kinds[0])
	}
}

func TestClassifyNoGPSEvidence(t *testing.T) {
	// Checkin hours away from any GPS fix: position unverifiable.
	gps := trace.GPSTrace{{T: 0, Loc: at(0)}, {T: 60, Loc: at(0)}}
	cks := trace.CheckinTrace{{T: 7200, Loc: at(100)}}
	res, err := core.MatchUser(cks, nil, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o := core.UserOutcome{User: &trace.User{GPS: gps, Checkins: cks, Days: 1}, Match: res}
	cl := classifyOne(t, o)
	if cl.Kinds[0] != Other {
		t.Fatalf("kind = %v, want other (unverifiable)", cl.Kinds[0])
	}
}

func TestClassifyInvalidParams(t *testing.T) {
	o := buildOutcome(t, 0, nil)
	if _, err := ClassifyUser(o, Params{}); err == nil {
		t.Fatal("zero params accepted")
	}
}

func TestMphToMps(t *testing.T) {
	if got := MphToMps(4); got < 1.78 || got > 1.79 {
		t.Errorf("4 mph = %g m/s", got)
	}
}

func TestKindStringAndLabel(t *testing.T) {
	if Honest.String() != "honest" || Driveby.String() != "driveby" {
		t.Error("kind names wrong")
	}
	if Kind(42).String() == "" {
		t.Error("out-of-range name empty")
	}
	if Honest.Label() != trace.LabelHonest || Remote.Label() != trace.LabelRemote {
		t.Error("label mapping wrong")
	}
	if Superfluous.Label() != trace.LabelSuperfluous || Driveby.Label() != trace.LabelDriveby {
		t.Error("label mapping wrong")
	}
	if Other.Label() != trace.LabelOther {
		t.Error("other mapping wrong")
	}
}

func TestRatios(t *testing.T) {
	cl := &Classification{Kinds: []Kind{Honest, Honest, Remote, Driveby}}
	if cl.Count(Honest) != 2 || cl.Count(Remote) != 1 {
		t.Error("counts wrong")
	}
	if cl.Ratio(Honest) != 0.5 {
		t.Errorf("honest ratio %g", cl.Ratio(Honest))
	}
	if cl.ExtraneousRatio() != 0.5 {
		t.Errorf("extraneous ratio %g", cl.ExtraneousRatio())
	}
	empty := &Classification{}
	if empty.Ratio(Honest) != 0 || empty.ExtraneousRatio() != 0 {
		t.Error("empty ratios not zero")
	}
}

func TestPerUserRatios(t *testing.T) {
	cls := []*Classification{
		{Kinds: []Kind{Honest, Remote}},
		{Kinds: []Kind{Remote, Remote}},
		{}, // empty user skipped
	}
	all := PerUserRatios(cls, Kind(-1))
	if len(all) != 2 || all[0] != 0.5 || all[1] != 1 {
		t.Fatalf("extraneous ratios = %v", all)
	}
	rem := PerUserRatios(cls, Remote)
	if rem[0] != 0.5 || rem[1] != 1 {
		t.Fatalf("remote ratios = %v", rem)
	}
}

func TestInterArrivals(t *testing.T) {
	cks := trace.CheckinTrace{
		{T: 0}, {T: 120}, {T: 600},
	}
	o := core.UserOutcome{User: &trace.User{Checkins: cks}}
	cls := []*Classification{{Kinds: []Kind{Remote, Remote, Honest}}}
	gaps := InterArrivals([]core.UserOutcome{o}, cls, Remote)
	if len(gaps) != 1 || gaps[0] != 2 {
		t.Fatalf("remote gaps = %v", gaps)
	}
	all := InterArrivals([]core.UserOutcome{o}, cls, Kind(-1))
	if len(all) != 2 {
		t.Fatalf("all gaps = %v", all)
	}
}

func TestFilterTradeoff(t *testing.T) {
	cls := []*Classification{
		{Kinds: []Kind{Remote, Remote, Remote, Honest}}, // 75% extraneous
		{Kinds: []Kind{Honest, Honest, Remote, Honest}}, // 25%
		{Kinds: []Kind{Honest, Honest}},                 // 0%
	}
	ft := ComputeFilterTradeoff(cls)
	if len(ft.UsersDropped) != 3 {
		t.Fatalf("curve length %d", len(ft.UsersDropped))
	}
	// Dropping the worst user removes 3/4 extraneous at 1/6 honest cost.
	if ft.ExtraneousRemoved[0] != 0.75 {
		t.Errorf("first drop removes %.2f extraneous", ft.ExtraneousRemoved[0])
	}
	if ft.HonestLost[0] != 1.0/6 {
		t.Errorf("first drop loses %.3f honest", ft.HonestLost[0])
	}
	dropped, lost := ft.HonestLossAt(0.8)
	if dropped != 2 {
		t.Errorf("dropped %d users for 80%%, want 2", dropped)
	}
	if lost != 4.0/6 {
		t.Errorf("honest lost %.3f, want 0.667", lost)
	}
}

func TestBurstDetectorFlags(t *testing.T) {
	d := BurstDetector{MaxGap: 2 * time.Minute}
	flags := d.Flags([]int64{0, 60, 3600, 7200, 7260})
	want := []bool{true, true, false, true, true}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("flags = %v, want %v", flags, want)
		}
	}
}

func TestDetectorScore(t *testing.T) {
	s := DetectorScore{TP: 8, FP: 2, TN: 5, FN: 2}
	if s.Precision() != 0.8 {
		t.Errorf("precision %g", s.Precision())
	}
	if s.Recall() != 0.8 {
		t.Errorf("recall %g", s.Recall())
	}
	if f1 := s.F1(); f1 < 0.79 || f1 > 0.81 {
		t.Errorf("f1 %g", f1)
	}
	var zero DetectorScore
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Error("zero score not zero")
	}
}

func TestEvaluateBurstDetector(t *testing.T) {
	// Two bursty remote checkins plus one isolated honest one.
	cks := trace.CheckinTrace{
		{T: 0, Loc: at(5000)},
		{T: 30, Loc: at(6000)},
		{T: 7200, Loc: at(0)},
	}
	o := buildOutcome(t, 0, cks)
	cls, err := ClassifyAll([]core.UserOutcome{o}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sc := EvaluateBurstDetector([]core.UserOutcome{o}, cls, BurstDetector{MaxGap: time.Minute})
	if sc.TP != 2 {
		t.Errorf("TP = %d, want 2 (bursty remotes)", sc.TP)
	}
	if sc.FP != 0 {
		t.Errorf("FP = %d", sc.FP)
	}
}

func TestCorrelateFeaturesErrors(t *testing.T) {
	if _, err := CorrelateFeatures(nil, []*Classification{{}}); err == nil {
		t.Error("length mismatch accepted")
	}
	// Too few users.
	o := buildOutcome(t, 0, trace.CheckinTrace{{T: 60, Loc: at(0)}})
	cls, err := ClassifyAll([]core.UserOutcome{o}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CorrelateFeatures([]core.UserOutcome{o}, cls); err == nil {
		t.Error("single user accepted")
	}
}

func TestTotals(t *testing.T) {
	cls := []*Classification{
		{Kinds: []Kind{Honest, Remote}},
		{Kinds: []Kind{Remote, Driveby}},
	}
	tot := Totals(cls)
	if tot[Honest] != 1 || tot[Remote] != 2 || tot[Driveby] != 1 {
		t.Fatalf("totals = %v", tot)
	}
}

// TestClassifyAllEmpty covers the zero-outcome edge case.
func TestClassifyAllEmpty(t *testing.T) {
	cls, err := ClassifyAll(nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(cls) != 0 {
		t.Fatalf("got %d classifications for no outcomes", len(cls))
	}
}
