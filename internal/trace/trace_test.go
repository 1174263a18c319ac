package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
)

var base = geo.LatLon{Lat: 34.4208, Lon: -119.6982}

func TestGPSTraceSortAndValidate(t *testing.T) {
	tr := GPSTrace{
		{T: 100, Loc: base},
		{T: 50, Loc: base},
	}
	if tr.Sorted() {
		t.Error("unsorted trace reported sorted")
	}
	tr.Sort()
	if !tr.Sorted() {
		t.Error("sorted trace reported unsorted")
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestGPSTraceValidateRejects(t *testing.T) {
	bad := GPSTrace{{T: 0, Loc: geo.LatLon{Lat: 91, Lon: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("invalid coordinate accepted")
	}
	outOfOrder := GPSTrace{{T: 100, Loc: base}, {T: 50, Loc: base}}
	if err := outOfOrder.Validate(); err == nil {
		t.Error("out-of-order trace accepted")
	}
}

func TestGPSTraceSpan(t *testing.T) {
	var empty GPSTrace
	if f, l := empty.Span(); f != 0 || l != 0 {
		t.Error("empty span not zero")
	}
	tr := GPSTrace{{T: 10, Loc: base}, {T: 99, Loc: base}}
	if f, l := tr.Span(); f != 10 || l != 99 {
		t.Errorf("span = %d..%d", f, l)
	}
}

func TestVisitDurationAndDeltaT(t *testing.T) {
	v := Visit{Start: 600, End: 1800}
	if v.Duration() != 20*time.Minute {
		t.Errorf("duration %v", v.Duration())
	}
	if v.DeltaT(700) != 0 {
		t.Error("in-interval DeltaT not zero")
	}
	if v.DeltaT(0) != 10*time.Minute {
		t.Errorf("before-start DeltaT = %v", v.DeltaT(0))
	}
	if v.DeltaT(2400) != 10*time.Minute {
		t.Errorf("after-end DeltaT = %v", v.DeltaT(2400))
	}
}

func TestLabelExtraneous(t *testing.T) {
	tests := []struct {
		l    Label
		want bool
	}{
		{LabelHonest, false},
		{LabelNone, false},
		{LabelSuperfluous, true},
		{LabelRemote, true},
		{LabelDriveby, true},
		{LabelOther, true},
	}
	for _, tc := range tests {
		if got := tc.l.Extraneous(); got != tc.want {
			t.Errorf("Extraneous(%q) = %v", tc.l, got)
		}
	}
}

func TestCheckinTraceValidate(t *testing.T) {
	tr := CheckinTrace{
		{T: 100, Loc: base},
		{T: 100, Loc: base}, // equal timestamps allowed
		{T: 200, Loc: base},
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("valid checkin trace rejected: %v", err)
	}
	bad := CheckinTrace{{T: 100, Loc: base}, {T: 50, Loc: base}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-order checkins accepted")
	}
}

func testDataset() *Dataset {
	return &Dataset{
		Name: "test",
		POIs: []poi.POI{
			{ID: 0, Name: "A", Category: poi.Food, Loc: base},
			{ID: 1, Name: "B", Category: poi.Shop, Loc: geo.Destination(base, 90, 500)},
		},
		Users: []*User{
			{
				ID:      0,
				Days:    2,
				Profile: Profile{Friends: 10, Badges: 3, Mayors: 1, CheckinsPerDay: 1.5},
				GPS: GPSTrace{
					{T: 0, Loc: base},
					{T: 60, Loc: base, Indoor: true},
				},
				Checkins: CheckinTrace{
					{T: 30, POIID: 0, POIName: "A", Category: poi.Food, Loc: base, Truth: LabelHonest},
				},
			},
			{ID: 1, Days: 3},
		},
	}
}

func TestDatasetValidate(t *testing.T) {
	if err := testDataset().Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	bad := testDataset()
	bad.POIs[1].ID = 7 // IDs must equal indices
	if err := bad.Validate(); err == nil {
		t.Error("bad POI numbering accepted")
	}
}

func TestDatasetValidateRejectsDuplicateUserIDs(t *testing.T) {
	// Duplicate IDs would silently merge Summarize's per-ID visit counts.
	bad := testDataset()
	bad.Users[1].ID = bad.Users[0].ID
	err := bad.Validate()
	if err == nil {
		t.Fatal("duplicate user IDs accepted")
	}
	if !strings.Contains(err.Error(), "duplicate user ID") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestDatasetValidateRejectsUnknownPOI(t *testing.T) {
	for _, poiID := range []int{-1, 2, 99} {
		bad := testDataset()
		bad.Users[0].Checkins[0].POIID = poiID
		err := bad.Validate()
		if err == nil {
			t.Fatalf("checkin claiming POI %d accepted (table has 2)", poiID)
		}
		if !strings.Contains(err.Error(), "unknown POI") {
			t.Errorf("unhelpful error for POI %d: %v", poiID, err)
		}
	}
}

func TestDatasetSummarize(t *testing.T) {
	ds := testDataset()
	sum := ds.Summarize(map[int]int{0: 4, 1: 2})
	if sum.Users != 2 || sum.Checkins != 1 || sum.GPSPoints != 2 {
		t.Errorf("summary %+v", sum)
	}
	if sum.AvgDays != 2.5 {
		t.Errorf("avg days %g", sum.AvgDays)
	}
	if sum.Visits != 6 {
		t.Errorf("visits %d", sum.Visits)
	}
	if s := sum.String(); s == "" {
		t.Error("empty summary string")
	}
	// Nil visit counts leave the column zero.
	if got := ds.Summarize(nil).Visits; got != 0 {
		t.Errorf("visits with nil counts = %d", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ds := testDataset()
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name || len(got.Users) != len(ds.Users) || len(got.POIs) != len(ds.POIs) {
		t.Fatalf("round trip lost structure: %+v", got)
	}
	u := got.Users[0]
	if len(u.GPS) != 2 || !u.GPS[1].Indoor {
		t.Error("GPS points lost")
	}
	if u.Checkins[0].Truth != LabelHonest {
		t.Error("truth label lost")
	}
	if u.Profile.CheckinsPerDay != 1.5 {
		t.Error("profile lost")
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("garbage accepted")
	}
	// Structurally valid JSON with an invalid coordinate.
	bad := `{"name":"x","pois":[],"users":[{"id":0,"profile":{"friends":0,"badges":0,"mayors":0,"checkins_per_day":0},"gps":[{"t":0,"loc":{"lat":99,"lon":0}}],"checkins":null,"days":1}]}`
	if _, err := ReadJSON(bytes.NewReader([]byte(bad))); err == nil {
		t.Error("invalid coordinate accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"ds.json", "ds.json.gz"} {
		path := filepath.Join(dir, name)
		ds := testDataset()
		if err := ds.SaveFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Name != "test" || len(got.Users) != 2 {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file load succeeded")
	}
}

// TestSaveFileAtomic pins the crash-safety contract: a save that fails
// mid-encode must leave the previous file at the destination untouched
// and no temporary files behind.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.json")
	if err := testDataset().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// NaN is unencodable in JSON, so this save fails after the temp file
	// has been created and partially written.
	bad := testDataset()
	bad.Users[0].Days = math.NaN()
	if err := bad.SaveFile(path); err == nil {
		t.Fatal("NaN dataset saved without error")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("destination gone after failed save: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed save corrupted the destination file")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "ds.json" {
			t.Errorf("leftover file %q after saves", e.Name())
		}
	}

	// A failed binary save behaves the same: unknown POI reference.
	badBin := testDataset()
	badBin.Users[0].Checkins[0].POIID = 99
	binPath := filepath.Join(dir, "ds.bin")
	if err := testDataset().SaveFile(binPath); err != nil {
		t.Fatal(err)
	}
	beforeBin, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := badBin.SaveFile(binPath); err == nil {
		t.Fatal("invalid dataset saved as binary without error")
	}
	afterBin, err := os.ReadFile(binPath)
	if err != nil || !bytes.Equal(beforeBin, afterBin) {
		t.Error("failed binary save corrupted the destination file")
	}

	// A directory at the destination obstructs the publish itself.
	if err := os.Mkdir(filepath.Join(dir, "dir.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := testDataset().SaveFile(filepath.Join(dir, "dir.json")); err == nil ||
		!strings.HasPrefix(err.Error(), "trace: save dataset:") {
		t.Fatalf("save over a directory = %v, want a save error", err)
	}
	if entries, err = os.ReadDir(dir); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, ",") != "dir.json,ds.bin,ds.json" {
		t.Errorf("files after the saves: %v", names)
	}
}

func TestCheckinTime(t *testing.T) {
	c := Checkin{T: 1358121600} // 2013-01-14 00:00 UTC
	if got := c.Time().UTC().Format("2006-01-02"); got != "2013-01-14" {
		t.Errorf("time = %s", got)
	}
	p := GPSPoint{T: 1358121600}
	if !p.Time().Equal(c.Time()) {
		t.Error("GPSPoint time mismatch")
	}
}
