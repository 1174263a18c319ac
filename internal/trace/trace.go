// Package trace defines the data model of the study: per-minute GPS
// traces, detected POI visits, Foursquare-style checkin events, user
// profiles and paired datasets, together with validation, summary
// statistics (Table 1) and JSON codecs.
//
// The two trace kinds mirror exactly what the paper's smartphone app
// collected (§3): a per-minute GPS location stream, and the user's checkin
// events polled from the Foursquare API (timestamp, POI name, category,
// coordinates).
package trace

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
)

// GPSPoint is one fix in a GPS trace.
type GPSPoint struct {
	// T is the fix time as Unix seconds.
	T int64 `json:"t"`
	// Loc is the coordinate of the fix.
	Loc geo.LatLon `json:"loc"`
	// Indoor marks fixes synthesized from the WiFi/accelerometer
	// stationarity fallback the app uses when GPS is unavailable inside
	// a POI (§3). Indoor fixes carry the last known outdoor location.
	Indoor bool `json:"indoor,omitempty"`
}

// Time returns the fix time.
func (p GPSPoint) Time() time.Time { return time.Unix(p.T, 0).UTC() }

// GPSTrace is a time-ordered sequence of fixes for one user.
type GPSTrace []GPSPoint

// Sorted reports whether the trace is in non-decreasing time order.
func (tr GPSTrace) Sorted() bool {
	return sort.SliceIsSorted(tr, func(i, j int) bool { return tr[i].T < tr[j].T })
}

// Sort orders the trace by time (stable, preserving equal-time order).
func (tr GPSTrace) Sort() {
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].T < tr[j].T })
}

// Span returns the first and last fix times, or zeros for an empty trace.
func (tr GPSTrace) Span() (first, last int64) {
	if len(tr) == 0 {
		return 0, 0
	}
	return tr[0].T, tr[len(tr)-1].T
}

// Validate checks trace invariants: time-ordered and valid coordinates.
func (tr GPSTrace) Validate() error {
	for i, p := range tr {
		if !p.Loc.Valid() {
			return fmt.Errorf("trace: GPS point %d has invalid location %v", i, p.Loc)
		}
		if i > 0 && p.T < tr[i-1].T {
			return fmt.Errorf("trace: GPS point %d out of order (%d < %d)", i, p.T, tr[i-1].T)
		}
	}
	return nil
}

// Visit is a stay at one location for longer than the visit threshold
// (the paper uses 6 minutes), detected from the GPS trace.
type Visit struct {
	// Start and End are the stay bounds as Unix seconds.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Loc is the stay centroid.
	Loc geo.LatLon `json:"loc"`
	// POIID is the identifier of the POI this visit was snapped to, or
	// -1 when unknown. Analysis code treats it as opaque.
	POIID int `json:"poi_id"`
	// Category is the category of the snapped POI (valid only when
	// POIID >= 0).
	Category poi.Category `json:"category"`
}

// Duration returns the stay duration.
func (v Visit) Duration() time.Duration {
	return time.Duration(v.End-v.Start) * time.Second
}

// DeltaT implements the paper's timestamp distance between a visit and a
// checkin at time tc (§4.1 footnote): zero when tc falls inside
// [Start, End], otherwise the distance to the nearer endpoint.
func (v Visit) DeltaT(tc int64) time.Duration {
	if tc >= v.Start && tc <= v.End {
		return 0
	}
	var d int64
	if tc < v.Start {
		d = v.Start - tc
	} else {
		d = tc - v.End
	}
	return time.Duration(d) * time.Second
}

// Checkin is one Foursquare-style checkin event: a timestamp plus the
// claimed POI's name, category and coordinates (§3).
type Checkin struct {
	// T is the checkin time as Unix seconds.
	T int64 `json:"t"`
	// POIID identifies the claimed POI.
	POIID int `json:"poi_id"`
	// POIName is the claimed POI's display name.
	POIName string `json:"poi_name"`
	// Category is the claimed POI's category.
	Category poi.Category `json:"category"`
	// Loc is the claimed POI's coordinate (not the user's position).
	Loc geo.LatLon `json:"loc"`
	// Truth is the generator's ground-truth label. It is populated only
	// for synthetic data and must never be read by analysis code; the
	// validator uses it to score itself. Empty for real data.
	Truth Label `json:"truth,omitempty"`
}

// Time returns the checkin time.
func (c Checkin) Time() time.Time { return time.Unix(c.T, 0).UTC() }

// Label is a ground-truth behaviour label attached by the synthetic
// generator.
type Label string

// Ground-truth labels. LabelNone marks real (unlabeled) data.
const (
	LabelNone        Label = ""
	LabelHonest      Label = "honest"
	LabelSuperfluous Label = "superfluous"
	LabelRemote      Label = "remote"
	LabelDriveby     Label = "driveby"
	LabelOther       Label = "other" // extraneous with no distinctive pattern
)

// Extraneous reports whether the label denotes a checkin without a
// matching physical visit.
func (l Label) Extraneous() bool {
	switch l {
	case LabelSuperfluous, LabelRemote, LabelDriveby, LabelOther:
		return true
	default:
		return false
	}
}

// CheckinTrace is a time-ordered sequence of checkins for one user.
type CheckinTrace []Checkin

// Sorted reports whether the trace is in non-decreasing time order.
func (tr CheckinTrace) Sorted() bool {
	return sort.SliceIsSorted(tr, func(i, j int) bool { return tr[i].T < tr[j].T })
}

// Sort orders the trace by time (stable).
func (tr CheckinTrace) Sort() {
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].T < tr[j].T })
}

// Validate checks trace invariants.
func (tr CheckinTrace) Validate() error {
	for i, c := range tr {
		if !c.Loc.Valid() {
			return fmt.Errorf("trace: checkin %d has invalid location %v", i, c.Loc)
		}
		if i > 0 && c.T < tr[i-1].T {
			return fmt.Errorf("trace: checkin %d out of order (%d < %d)", i, c.T, tr[i-1].T)
		}
	}
	return nil
}

// Profile is the user's Foursquare profile features used in Table 2.
type Profile struct {
	Friends int `json:"friends"`
	Badges  int `json:"badges"`
	Mayors  int `json:"mayors"`
	// CheckinsPerDay is the user's checkin rate over the measurement
	// window.
	CheckinsPerDay float64 `json:"checkins_per_day"`
}

// User pairs one participant's GPS trace with her checkin trace.
type User struct {
	ID       int          `json:"id"`
	Profile  Profile      `json:"profile"`
	GPS      GPSTrace     `json:"gps"`
	Checkins CheckinTrace `json:"checkins"`
	// Days is the measurement coverage for this user in days.
	Days float64 `json:"days"`
}

// Validate checks both traces.
func (u *User) Validate() error { return u.validate(true) }

// validate checks the checkin trace, and the GPS trace too when gps is
// set (the binary decoder checks fixes as it builds them).
func (u *User) validate(gps bool) error {
	if gps {
		if err := u.GPS.Validate(); err != nil {
			return fmt.Errorf("user %d: %w", u.ID, err)
		}
	}
	if err := u.Checkins.Validate(); err != nil {
		return fmt.Errorf("user %d: %w", u.ID, err)
	}
	return nil
}

// validateRefs checks that every checkin claims a POI that exists in a
// table of numPOIs entries (IDs equal indices, as poi.ValidateTable
// enforces).
func (u *User) validateRefs(numPOIs int) error {
	for i, c := range u.Checkins {
		if c.POIID < 0 || c.POIID >= numPOIs {
			return fmt.Errorf("user %d: checkin %d claims unknown POI %d (table has %d)",
				u.ID, i, c.POIID, numPOIs)
		}
	}
	return nil
}

// Dataset is a full study dataset: a POI database plus per-user paired
// traces (and, once detected, visits).
type Dataset struct {
	// Name labels the dataset ("primary", "baseline", …).
	Name string `json:"name"`
	// POIs is the venue database the checkins refer to.
	POIs []poi.POI `json:"pois"`
	// Users holds the participants.
	Users []*User `json:"users"`
}

// ErrEmptyDataset is returned when an operation requires at least one user.
var ErrEmptyDataset = errors.New("trace: empty dataset")

// Validate checks every user and the POI table. Beyond per-trace
// invariants it enforces the dataset-level ones: user IDs must be unique
// (Summarize keys visit counts by ID, so duplicates would silently merge
// rows) and every checkin must claim a POI that exists in the table.
func (d *Dataset) Validate() error {
	if err := poi.ValidateTable(d.POIs); err != nil {
		return err
	}
	seen := make(map[int]struct{}, len(d.Users))
	for _, u := range d.Users {
		if _, dup := seen[u.ID]; dup {
			return fmt.Errorf("trace: duplicate user ID %d", u.ID)
		}
		seen[u.ID] = struct{}{}
		if err := u.Validate(); err != nil {
			return err
		}
		if err := u.validateRefs(len(d.POIs)); err != nil {
			return err
		}
	}
	return nil
}

// UserSource yields a dataset's users one at a time: Next returns io.EOF
// after the last user. It is the seam between the codecs (in-memory
// datasets, binary stream readers) and bounded-memory consumers.
type UserSource interface {
	Next() (*User, error)
}

// sliceSource adapts an in-memory user slice to UserSource.
type sliceSource struct {
	users []*User
	pos   int
}

// Next yields the slice's users in order, then io.EOF.
func (s *sliceSource) Next() (*User, error) {
	if s.pos >= len(s.users) {
		return nil, io.EOF
	}
	u := s.users[s.pos]
	s.pos++
	return u, nil
}

// Source returns a UserSource over the in-memory users.
func (d *Dataset) Source() UserSource { return &sliceSource{users: d.Users} }

// DB builds the POI database for the dataset.
func (d *Dataset) DB() (*poi.DB, error) { return poi.NewDB(d.POIs) }

// Summary is the Table 1 row for a dataset: user count, average
// measurement days per user, checkin count, visit count and GPS point
// count.
type Summary struct {
	Name      string  `json:"name"`
	Users     int     `json:"users"`
	AvgDays   float64 `json:"avg_days"`
	Checkins  int     `json:"checkins"`
	Visits    int     `json:"visits"`
	GPSPoints int     `json:"gps_points"`
}

// Summarize computes the Table 1 row. Visits must be supplied by the
// caller (visit detection lives in internal/visits) as a per-user count;
// pass nil to leave the visit column zero.
func (d *Dataset) Summarize(visitCounts map[int]int) Summary {
	s := Summary{Name: d.Name, Users: len(d.Users)}
	var days float64
	for _, u := range d.Users {
		days += u.Days
		s.Checkins += len(u.Checkins)
		s.GPSPoints += len(u.GPS)
		if visitCounts != nil {
			s.Visits += visitCounts[u.ID]
		}
	}
	if len(d.Users) > 0 {
		s.AvgDays = days / float64(len(d.Users))
	}
	return s
}

// String implements fmt.Stringer with a Table 1 style row.
func (s Summary) String() string {
	return fmt.Sprintf("%-10s users=%d avgDays=%.1f checkins=%d visits=%d gpsPoints=%d",
		s.Name, s.Users, s.AvgDays, s.Checkins, s.Visits, s.GPSPoints)
}
