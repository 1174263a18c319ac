// Package classify implements the paper's extraneous-checkin taxonomy
// (§5.1: superfluous, remote, driveby), the incentive-correlation analysis
// behind Table 2, the per-user prevalence and burstiness characterizations
// of §5.3 (Figures 5 and 6), and the burstiness-based extraneous-checkin
// detector the paper sketches as future work in §7.
package classify

import (
	"fmt"
	"time"

	"geosocial/internal/core"
	"geosocial/internal/geo"
	"geosocial/internal/trace"
	"geosocial/internal/visits"
)

// Kind is the classified type of a checkin.
type Kind int

// Checkin kinds. Honest is a matched checkin; the remaining kinds
// partition the extraneous (unmatched) checkins.
const (
	Honest Kind = iota
	Superfluous
	Remote
	Driveby
	Other
	numKinds
)

// NumKinds is the number of checkin kinds.
const NumKinds = int(numKinds)

var kindNames = [...]string{"honest", "superfluous", "remote", "driveby", "other"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < 0 || int(k) >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Label converts the kind to the equivalent ground-truth label namespace.
func (k Kind) Label() trace.Label {
	switch k {
	case Honest:
		return trace.LabelHonest
	case Superfluous:
		return trace.LabelSuperfluous
	case Remote:
		return trace.LabelRemote
	case Driveby:
		return trace.LabelDriveby
	default:
		return trace.LabelOther
	}
}

// Params are the classification thresholds.
type Params struct {
	// RemoteDist is the distance in meters between a checkin's POI and
	// the user's actual GPS position beyond which the checkin is remote
	// (paper: 500 m, "beyond any reasonable GPS or POI location error").
	RemoteDist float64
	// DrivebySpeed is the ground speed in m/s above which an extraneous
	// checkin is a driveby (paper: 4 mph = 1.78816 m/s).
	DrivebySpeed float64
	// SuperfluousDist is the radius in meters around a checkin within
	// which a visit matched by a different checkin marks this one
	// superfluous (the α radius).
	SuperfluousDist float64
	// SuperfluousWindow is the time window for the superfluous test
	// (the β window).
	SuperfluousWindow time.Duration
	// SpeedGap is the maximum GPS-fix spacing usable for speed
	// estimation.
	SpeedGap time.Duration
}

// MphToMps converts miles per hour to meters per second.
func MphToMps(mph float64) float64 { return mph * 0.44704 }

// DefaultParams returns the paper's thresholds.
func DefaultParams() Params {
	return Params{
		RemoteDist:        500,
		DrivebySpeed:      MphToMps(4),
		SuperfluousDist:   500,
		SuperfluousWindow: 30 * time.Minute,
		SpeedGap:          6 * time.Minute,
	}
}

// Classification holds the per-checkin kinds for one user, parallel to
// the user's checkin trace.
type Classification struct {
	Kinds []Kind
}

// Count returns the number of checkins of kind k.
func (c *Classification) Count(k Kind) int {
	n := 0
	for _, kk := range c.Kinds {
		if kk == k {
			n++
		}
	}
	return n
}

// Ratio returns the fraction of checkins of kind k (0 when empty).
func (c *Classification) Ratio(k Kind) float64 {
	if len(c.Kinds) == 0 {
		return 0
	}
	return float64(c.Count(k)) / float64(len(c.Kinds))
}

// KindCounts is a per-kind checkin histogram for one user — the compact
// user-level summary the streaming analysis accumulators (CorrAccum,
// TradeoffAccum) consume, and what the outcome log reconstructs without
// the traces.
type KindCounts [NumKinds]int

// Total returns the number of checkins across all kinds.
func (kc KindCounts) Total() int {
	n := 0
	for _, v := range kc {
		n += v
	}
	return n
}

// CountsOf builds a KindCounts from a raw kind sequence. Kinds outside
// the valid range are ignored (decoders reject them before this point).
func CountsOf(kinds []Kind) KindCounts {
	var kc KindCounts
	for _, k := range kinds {
		if k >= 0 && int(k) < NumKinds {
			kc[k]++
		}
	}
	return kc
}

// Counts returns the per-kind histogram of this classification.
func (c *Classification) Counts() KindCounts { return CountsOf(c.Kinds) }

// ExtraneousRatio returns the fraction of checkins that are not honest.
func (c *Classification) ExtraneousRatio() float64 {
	if len(c.Kinds) == 0 {
		return 0
	}
	return 1 - c.Ratio(Honest)
}

// ClassifyUser assigns a kind to every checkin of one matched user
// outcome, following §5.1:
//
//   - matched checkins are honest;
//   - unmatched checkins whose POI lies more than RemoteDist from the
//     user's actual (GPS) position at checkin time are remote;
//   - otherwise, if the user was moving faster than DrivebySpeed, driveby;
//   - otherwise, if a visit within SuperfluousDist/SuperfluousWindow was
//     matched by a different (geographically closer) checkin, superfluous;
//   - anything left has no distinctive feature: other.
func ClassifyUser(o core.UserOutcome, p Params) (*Classification, error) {
	if p.RemoteDist <= 0 || p.DrivebySpeed <= 0 || p.SuperfluousDist <= 0 {
		return nil, fmt.Errorf("classify: invalid params %+v", p)
	}
	u := o.User
	cl := &Classification{Kinds: make([]Kind, len(u.Checkins))}
	var win core.VisitWindow
	win.Reset(o.Visits)

	for ci, c := range u.Checkins {
		if o.Match.IsHonest(ci) {
			cl.Kinds[ci] = Honest
			continue
		}
		// Remote: claimed POI far from the user's true position.
		pos, ok := gpsAt(u.GPS, c.T, p.SpeedGap)
		if ok && geo.Distance(pos, c.Loc) > p.RemoteDist {
			cl.Kinds[ci] = Remote
			continue
		}
		if !ok {
			// No GPS fix within SpeedGap of the checkin: its position is
			// unverifiable, so the checkin is Other.
			cl.Kinds[ci] = Other
			continue
		}
		// Driveby: physically nearby but moving.
		if spd, ok := visits.SpeedAt(u.GPS, c.T, p.SpeedGap); ok && spd > p.DrivebySpeed {
			cl.Kinds[ci] = Driveby
			continue
		}
		// Superfluous: a visit here was claimed by a closer checkin.
		if hasStolenVisit(o, &win, c, p) {
			cl.Kinds[ci] = Superfluous
			continue
		}
		cl.Kinds[ci] = Other
	}
	return cl, nil
}

// hasStolenVisit reports whether some visit within the α/β window of c
// was matched to a different checkin. It walks only the visits win
// places near c in time and tests time before distance.
func hasStolenVisit(o core.UserOutcome, win *core.VisitWindow, c trace.Checkin, p Params) bool {
	lo, hi := win.Span(c.T, p.SuperfluousWindow)
	for k := lo; k < hi; k++ {
		vi := win.Visit(k)
		v := &o.Visits[vi]
		if v.DeltaT(c.T) >= p.SuperfluousWindow || !o.Match.IsVisitMatched(vi) {
			continue
		}
		if geo.Distance(v.Loc, c.Loc) <= p.SuperfluousDist {
			return true
		}
	}
	return false
}

// gpsAt returns the user's interpolated GPS position at time t, with ok
// false when no fix lies within maxGap of t.
func gpsAt(tr trace.GPSTrace, t int64, maxGap time.Duration) (geo.LatLon, bool) {
	if len(tr) == 0 {
		return geo.LatLon{}, false
	}
	lo, hi := 0, len(tr)
	for lo < hi {
		mid := (lo + hi) / 2
		if tr[mid].T < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	gapSec := int64(maxGap / time.Second)
	switch {
	case lo == 0:
		if tr[0].T-t > gapSec {
			return geo.LatLon{}, false
		}
		return tr[0].Loc, true
	case lo >= len(tr):
		last := tr[len(tr)-1]
		if t-last.T > gapSec {
			return geo.LatLon{}, false
		}
		return last.Loc, true
	default:
		a, b := tr[lo-1], tr[lo]
		if t-a.T > gapSec && b.T-t > gapSec {
			return geo.LatLon{}, false
		}
		if b.T == a.T {
			return a.Loc, true
		}
		f := float64(t-a.T) / float64(b.T-a.T)
		return geo.Interpolate(a.Loc, b.Loc, f), true
	}
}

// ClassifyAll classifies every user outcome, one after another, and
// returns a slice parallel to outs. It is the serial reference the
// facade's parallel engine is tested against.
func ClassifyAll(outs []core.UserOutcome, p Params) ([]*Classification, error) {
	cls := make([]*Classification, len(outs))
	for i, o := range outs {
		c, err := ClassifyUser(o, p)
		if err != nil {
			return nil, fmt.Errorf("classify: user %d: %w", o.User.ID, err)
		}
		cls[i] = c
	}
	return cls, nil
}

// Totals sums kind counts over a set of classifications.
func Totals(cls []*Classification) map[Kind]int {
	out := make(map[Kind]int, NumKinds)
	for _, c := range cls {
		for _, k := range c.Kinds {
			out[k]++
		}
	}
	return out
}
