// Package visits implements stay-point ("visit") detection over GPS
// traces, plus the movement/pause segmentation consumed by the Levy-walk
// fitting in internal/levy.
//
// The paper defines a visit as "the user staying at one location for
// longer than some period of time, e.g. 6 minutes" (§3). The detector
// below is the classic stay-point algorithm: scan forward and group
// consecutive fixes that stay within a roam radius of the window's
// anchor; when the window spans at least the minimum duration it becomes
// a visit with the centroid of its fixes as the visit location. Indoor
// fixes (the app's WiFi/accelerometer stationarity fallback) participate
// like ordinary fixes, as in the paper's collection app.
package visits

import (
	"fmt"
	"time"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
	"geosocial/internal/trace"
)

// Config parameterizes visit detection.
type Config struct {
	// MinDuration is the minimum stay length for a visit; the paper uses
	// 6 minutes.
	MinDuration time.Duration
	// RoamRadius is the maximum distance in meters a fix may stray from
	// the stay anchor and still extend the stay.
	RoamRadius float64
	// MaxGap is the largest time gap between consecutive fixes allowed
	// inside one stay; longer gaps split the stay (a silent phone is not
	// evidence of presence).
	MaxGap time.Duration
	// SnapRadius is the maximum distance in meters from the visit
	// centroid to a POI for the visit to be attributed to that POI.
	// Visits with no POI within the radius keep POIID == -1.
	SnapRadius float64
}

// DefaultConfig returns the paper's parameters: 6-minute minimum stay,
// 100 m roam radius, 10-minute maximum intra-stay gap, 150 m POI snap.
func DefaultConfig() Config {
	return Config{
		MinDuration: 6 * time.Minute,
		RoamRadius:  100,
		MaxGap:      10 * time.Minute,
		SnapRadius:  150,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MinDuration <= 0 {
		return fmt.Errorf("visits: MinDuration must be positive, got %v", c.MinDuration)
	}
	if c.RoamRadius <= 0 {
		return fmt.Errorf("visits: RoamRadius must be positive, got %g", c.RoamRadius)
	}
	if c.MaxGap <= 0 {
		return fmt.Errorf("visits: MaxGap must be positive, got %v", c.MaxGap)
	}
	if c.SnapRadius < 0 {
		return fmt.Errorf("visits: SnapRadius must be non-negative, got %g", c.SnapRadius)
	}
	return nil
}

// Detect extracts visits from a time-ordered GPS trace. The db may be nil,
// in which case visits are not snapped to POIs. Detected visits are
// non-overlapping and time-ordered.
//
// Detect is one forward scan over tr in place: from each anchor fix it
// extends the stay window while fixes keep within MaxGap of their
// predecessor and within RoamRadius of the anchor. A window spanning at
// least MinDuration becomes a visit at the centroid of its fixes and the
// scan resumes after it; otherwise the anchor moves on by one fix. tr is
// neither copied nor retained. Every consecutive pair of fixes is some
// window's, the pair a window stops at included, so the same scan finds
// a fix that precedes its predecessor and then returns an error and no
// visits.
func Detect(tr trace.GPSTrace, cfg Config, db *poi.DB) ([]trace.Visit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := geo.NewRadiusTest(cfg.RoamRadius) // RoamRadius, thresholds solved once
	var out []trace.Visit
	for i := 0; i < len(tr); {
		anchor := tr[i]
		roam := rt.Around(anchor.Loc)
		n, ordered := extend(tr[i+1:], &roam, anchor.T, cfg.MaxGap)
		if !ordered {
			return nil, fmt.Errorf("visits: GPS trace not time-ordered")
		}
		j := i + n
		if dur := time.Duration(tr[j].T-anchor.T) * time.Second; dur < cfg.MinDuration {
			i++
			continue
		}
		v := trace.Visit{Start: anchor.T, End: tr[j].T, Loc: centroid(tr[i : j+1]), POIID: -1}
		if db != nil {
			if p, _, ok := db.NearestWithin(v.Loc, cfg.SnapRadius); ok {
				v.POIID = p.ID
				v.Category = p.Category
			}
		}
		out = append(out, v)
		i = j + 1
	}
	return out, nil
}

// extend returns how many leading fixes of w continue a stay window
// whose latest fix is at prevT: each fix must follow its predecessor
// within maxGap and lie within the roam disk around the window's anchor.
// It also checks the pair it stops at, so ordered is false when a fix it
// examined precedes its predecessor.
func extend(w []trace.GPSPoint, roam *geo.Disk, prevT int64, maxGap time.Duration) (n int, ordered bool) {
	for k, p := range w {
		if p.T < prevT {
			return k, false
		}
		if time.Duration(p.T-prevT)*time.Second > maxGap {
			return k, true
		}
		// Decision-identical to Distance(anchor, p.Loc) <= RoamRadius:
		// squared certified thresholds decide all but borderline fixes
		// without square roots or trigonometry (see geo/fastdist.go).
		if !roam.Contains(p.Loc) {
			return k, true
		}
		prevT = p.T
	}
	return len(w), true
}

// centroid returns the mean coordinate of the fixes, summed in order.
// Valid for the small extents of a single stay.
func centroid(pts []trace.GPSPoint) geo.LatLon {
	var lat, lon float64
	for _, p := range pts {
		lat += p.Loc.Lat
		lon += p.Loc.Lon
	}
	n := float64(len(pts))
	return geo.LatLon{Lat: lat / n, Lon: lon / n}
}

// SpeedAt estimates the user's ground speed in m/s at time t from the GPS
// trace, using the displacement between the fixes bracketing t. The
// boolean is false when the trace has no bracketing fixes within maxGap
// of t on both sides.
func SpeedAt(tr trace.GPSTrace, t int64, maxGap time.Duration) (float64, bool) {
	if len(tr) < 2 {
		return 0, false
	}
	// Binary search for the first fix at or after t.
	lo, hi := 0, len(tr)
	for lo < hi {
		mid := (lo + hi) / 2
		if tr[mid].T < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var a, b trace.GPSPoint
	switch {
	case lo == 0:
		a, b = tr[0], tr[1]
	case lo >= len(tr):
		a, b = tr[len(tr)-2], tr[len(tr)-1]
	default:
		a, b = tr[lo-1], tr[lo]
	}
	gap := time.Duration(b.T-a.T) * time.Second
	if gap <= 0 || gap > maxGap {
		return 0, false
	}
	if abs64(a.T-t) > int64(maxGap/time.Second) || abs64(b.T-t) > int64(maxGap/time.Second) {
		return 0, false
	}
	return geo.Distance(a.Loc, b.Loc) / gap.Seconds(), true
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Segment is one movement leg between consecutive visits: the straight-
// line displacement Dist (meters) covered in Dur. It feeds the Levy-walk
// "flight" distribution.
type Segment struct {
	Dist float64       // meters
	Dur  time.Duration // movement time between stays
}

// Segments derives movement legs from a time-ordered visit list: one leg
// per consecutive visit pair, with distance between the visit centroids
// and duration from the first visit's end to the second's start. Legs
// longer than maxDur (e.g. overnight tracking gaps) or shorter than
// minDist are discarded, mirroring standard Levy-walk trace preparation.
func Segments(vs []trace.Visit, minDist float64, maxDur time.Duration) []Segment {
	var out []Segment
	for i := 1; i < len(vs); i++ {
		dur := time.Duration(vs[i].Start-vs[i-1].End) * time.Second
		if dur <= 0 || dur > maxDur {
			continue
		}
		dist := geo.Distance(vs[i-1].Loc, vs[i].Loc)
		if dist < minDist {
			continue
		}
		out = append(out, Segment{Dist: dist, Dur: dur})
	}
	return out
}

// Pauses returns the visit durations in minutes, the Levy-walk pause-time
// sample (Figure 7c).
func Pauses(vs []trace.Visit) []float64 {
	out := make([]float64, 0, len(vs))
	for _, v := range vs {
		out = append(out, v.Duration().Minutes())
	}
	return out
}
