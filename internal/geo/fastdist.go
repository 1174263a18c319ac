package geo

import "math"

// This file implements certified fast bounds on the haversine distance:
// cheap expressions LB and UB with LB <= Distance(a,b) <= UB that need no
// trigonometry beyond latitude cosines (which callers precompute once per
// point). Threshold comparisons — "is Distance <= radius?" — are decided
// by the bounds alone for all but borderline pairs, where the exact
// haversine is still the decider. Decisions are therefore bit-identical
// to calling Distance directly; the bounds only skip work, never change
// an accept/reject outcome.
//
// Derivation. Distance computes d = 2R·asin(√h) with
// h = sin²(Δφ/2) + cosφ₁·cosφ₂·sin²(Δλ/2) (clamped to 1). Writing
// x = |Δφ|/2, y = |Δλ|/2 and cc = cosφ₁·cosφ₂ (both cosines are
// nonnegative for latitudes in [-90°, 90°]):
//
//   - Lower bound: asin(s) >= s and sin(t) >= t·(1 - t²/6) for t >= 0
//     (alternating Taylor series; the truncation t·(1-t²/6) is also
//     nonnegative throughout t <= π). Hence
//       d >= 2R·√( sl(x)² + ccLo·sl(y)² ),  sl(t) = max(0, t - t³/6).
//   - Upper bound: sin(t) <= t and asin(s) <= s + s³ for s <= 1/2
//     (asin s = s + s³/6 + 3s⁵/40 + … <= s + s³ on [0, ½]). Hence with
//     hu = x² + ccHi·y², whenever √hu <= ½:
//       d <= 2R·(√hu + √hu³).
//     For √hu > ½ (separations beyond ~6600 km) no finite upper bound is
//     claimed; every radius used in this repository is far smaller, so
//     the accept shortcut simply never fires there.
//
// Both bounds are scaled by (1 ∓ boundSlack) and widened by
// boundAbsSlack meters so that floating-point rounding in their
// evaluation — and in Distance itself — can never flip the sandwich: the
// mathematical margin of the series truncations is zero only at Δ = 0,
// while accumulated rounding across the ~15 flops involved stays below
// 1e-14 relative; boundSlack = 1e-12 dominates it by two orders of
// magnitude. Distance also differences latitudes after converting each
// to radians, which costs up to ~1e-16 rad — about 1e-9 m — absolute
// whatever the separation, so for short pairs its error is large in
// relative terms; boundAbsSlack = 1e-6 m dominates that by three orders.
// TestDistBoundsSandwich sweeps random E7 pairs (including
// near-threshold adversarial radii) to enforce this.

// boundSlack and boundAbsSlack are the relative and absolute (meters)
// safety margins applied to the certified bounds to absorb
// floating-point rounding (see file comment).
const (
	boundSlack    = 1e-12
	boundAbsSlack = 1e-6
)

// MetersPerE7Lat is the meridional length in meters of one E7 latitude
// unit (1e-7 degree). Pure latitude separation bounds the great-circle
// distance from below: d >= R·|Δφ|, so two points whose E7 latitudes
// differ by k units are at least ~(k-1)·MetersPerE7Lat meters apart
// (one unit of slack covers rounding to the E7 grid).
const MetersPerE7Lat = EarthRadius * math.Pi / 180 * 1e-7

// E7 returns the coordinate (in degrees) rounded to fixed-point E7
// (units of 1e-7 degree), the grid the binary codec stores coordinates
// on. Valid latitudes and longitudes fit comfortably in int32.
func E7(deg float64) int32 { return int32(math.Round(deg * 1e7)) }

// CosLat returns the cosine of p's latitude in radians — the only
// per-point trigonometry the fast bounds need. Index structures
// precompute it once per stored point.
func CosLat(p LatLon) float64 { return math.Cos(deg2rad(p.Lat)) }

// MaxE7LatDiff returns the largest E7 latitude difference (in units)
// that is NOT certainly farther than radius meters: any pair whose E7
// latitudes differ by more than the returned value has great-circle
// distance strictly greater than radius, regardless of longitude. This
// is the exact integer bounding-box prefilter — a single integer
// compare per candidate.
func MaxE7LatDiff(radius float64) int32 {
	if radius < 0 {
		return 0
	}
	f := radius / (MetersPerE7Lat * (1 - boundSlack))
	if f >= math.MaxInt32-2 {
		return math.MaxInt32
	}
	// +2: one unit for E7 rounding of each endpoint, one for the float
	// truncation here. Rejection beyond this is certified; acceptance
	// inside it decides nothing (later stages do).
	return int32(f) + 2
}

// e7Span is the full longitude circle in E7 units.
const e7Span = 360 * 1e7

// e7Box is a certified integer bounding box around a query point: any
// point whose E7 latitude differs from the center's by more than dLat
// units, or whose E7 longitude differs by more than dLon units (measured
// the short way round, across the antimeridian if that is shorter), is
// strictly farther than the radius the box was built for. Points inside
// the box are undecided; later stages decide them.
type e7Box struct {
	lat, lon   int64 // center, E7 units
	dLat, dLon int64 // half-widths, E7 units; dLon = e7Span means no longitude bound
}

// newE7Box returns the certified box for Distance(q, p) <= radius, given
// cosQ = CosLat(q).
//
// Latitude uses MaxE7LatDiff. Longitude: for a point p that passes the
// latitude test, |φp - φq| <= δ with δ the latitude half-width plus one
// unit of E7 rounding, so cos φp >= cmin = cos φq - δ (cosine is
// 1-Lipschitz). Then h >= cos φq · cmin · sin²(Δλ/2) and
// d = 2R·asin(√h) >= 2R·√h, so Δλ > 2·asin(s) with
// s = radius / (2R·√(cos φq · cmin)) certifies d > radius, and
// asin(s) <= s + s³ for s <= ½ turns that into Δλ > 2(s + s³) without
// trigonometry. The cosines carry an absolute margin far above their
// rounding error and the angle a relative one, plus two E7 units for
// rounding both endpoints; when s > ½ (near the poles, or huge radii) no
// longitude bound is claimed.
func newE7Box(q LatLon, cosQ, radius float64) e7Box {
	b := e7Box{lat: int64(E7(q.Lat)), lon: int64(E7(q.Lon)), dLat: int64(MaxE7LatDiff(radius)), dLon: e7Span}
	if !(radius >= 0) || math.IsInf(radius, 1) {
		return b
	}
	cc := (cosQ - 1e-12) * (cosQ - deg2rad(float64(b.dLat+1)*1e-7) - 1e-12)
	if cc <= 0 {
		return b
	}
	s := radius / (2 * EarthRadius * math.Sqrt(cc))
	if s > 0.5 {
		return b
	}
	b.dLon = int64(rad2deg(2*(s+s*s*s))*1e7*(1+1e-9)) + 2
	return b
}

// rejects reports whether a point with the given E7 coordinates is
// certified outside the box's radius.
func (b *e7Box) rejects(latE7, lonE7 int32) bool {
	d := int64(latE7) - b.lat
	if d < 0 {
		d = -d
	}
	if d > b.dLat {
		return true
	}
	d = int64(lonE7) - b.lon
	if d < 0 {
		d = -d
	}
	if d > e7Span/2 {
		d = e7Span - d
	}
	return d > b.dLon
}

// wraps reports whether the box's longitude window crosses the
// antimeridian, returning the query longitude shifted by ±360° that
// brings the far side next to it.
func (b *e7Box) wraps(lon float64) (float64, bool) {
	switch {
	case b.dLon >= e7Span/2:
		return 0, false
	case b.lon+b.dLon > e7Span/2:
		return lon - 360, true
	case b.lon-b.dLon < -e7Span/2:
		return lon + 360, true
	}
	return 0, false
}

// lowerH returns hl = sl(x)² + cc·sl(y)², the quantity under the root of
// the certified lower bound, from the absolute coordinate deltas in
// degrees and cc <= cosφ₁·cosφ₂. It is not clamped to 1.
func lowerH(absDLat, absDLon, cc float64) float64 {
	x := deg2rad(absDLat) / 2
	y := deg2rad(absDLon) / 2
	sx := x * (1 - x*x/6)
	if sx < 0 {
		sx = 0
	}
	sy := y * (1 - y*y/6)
	if sy < 0 {
		sy = 0
	}
	return sx*sx + cc*sy*sy
}

// hlLimit returns the squared threshold behind the lower bound: for
// d >= 0, hl > hlLimit(d) exactly when lb > d, which certifies
// Distance > d. It is +Inf when no hl can certify that.
func hlLimit(d float64) float64 {
	l := (d + boundAbsSlack) / (2 * EarthRadius * (1 - boundSlack))
	if l >= 1 {
		return math.Inf(1)
	}
	return l * l
}

// DistBounds returns certified bounds lb <= Distance(a, b) <= ub, where
// cc is the exact product CosLat(a)*CosLat(b). ub may be +Inf beyond
// the small-angle regime (separations over ~6600 km).
func DistBounds(a, b LatLon, cc float64) (lb, ub float64) {
	absDLat, absDLon := math.Abs(a.Lat-b.Lat), math.Abs(a.Lon-b.Lon)
	hl := min(lowerH(absDLat, absDLon, cc), 1)
	lb = max(0, 2*EarthRadius*math.Sqrt(hl)*(1-boundSlack)-boundAbsSlack)

	x := deg2rad(absDLat) / 2
	y := deg2rad(absDLon) / 2
	hu := x*x + cc*y*y
	if hu > 0.25 {
		return lb, math.Inf(1)
	}
	s := math.Sqrt(hu)
	ub = 2*EarthRadius*(s+s*s*s)*(1+boundSlack) + boundAbsSlack
	return lb, ub
}

// RadiusTest decides Distance(a, b) <= radius for one fixed radius,
// bit-identically to computing the haversine, with no square root and
// no trigonometry beyond one cosine per anchor for all but borderline
// pairs. The certified bounds are monotone in h, so instead of taking
// √hl and √hu per pair it compares them against squared thresholds
// solved once per radius:
//
//   - reject when hl > hlLimit(radius), i.e. exactly when the lower
//     bound lb exceeds radius;
//   - accept when hu <= huMax = s*², where s* solves
//     s + s³ = (radius - boundAbsSlack) / (2R·(1 + boundSlack)), i.e.
//     exactly when the upper bound ub is at most radius (s + s³ is
//     increasing).
//
// Both thresholds keep the margins of the bounds they replace. Around
// then folds the anchor's cosine into the accept test (see Disk).
type RadiusTest struct {
	radius float64
	hlMax  float64 // reject when hl exceeds this
	huMax  float64 // accept when hu is at most this
}

// NewRadiusTest precomputes the squared thresholds for radius meters.
func NewRadiusTest(radius float64) RadiusTest {
	if !(radius >= 0) { // nothing is within a negative or NaN radius
		return RadiusTest{radius: radius, hlMax: -1, huMax: -1}
	}
	t := RadiusTest{radius: radius, hlMax: hlLimit(radius), huMax: -1}
	u := (radius - boundAbsSlack) / (2 * EarthRadius * (1 + boundSlack))
	if u < 0 { // too small a radius to certify any accept
		return t
	}
	s := u
	for i := 0; i < 64; i++ { // Newton on s + s³ = u; converges in a handful
		next := s - (s+s*s*s-u)/(1+3*s*s)
		if next == s {
			break
		}
		s = next
	}
	for s > 0 && s+s*s*s > u { // land on the certified side of the root
		s = math.Nextafter(s, 0)
	}
	t.huMax = min(s*s, 0.25)
	return t
}

// Disk is a RadiusTest bound to one anchor point: Contains(p) reports
// Distance(anchor, p) <= radius, bit-identically.
//
// The accept test works in squared degrees with per-anchor constants.
// With k = π/180, hu = (k/2)²·(Δφ² + cc·Δλ²) in degrees, and accepting
// needs x² <= hu <= huMax, so any accepted fix has |Δφ|·k <= 2√huMax;
// hence cc <= cos φa · min(1, cos φa + 2√huMax) = w, a constant of the
// anchor, and Δφ² + w·Δλ² <= huMax/(k/2)² certifies hu <= huMax. The
// reject test brackets the other cosine as cos φa - |Δφ|·k.
type Disk struct {
	anchor    LatLon
	cosA      float64
	w         float64 // Δλ² weight of the accept test
	acceptDeg float64 // accept when Δφ² + w·Δλ² (degrees²) is at most this
	hlMax     float64
	radius    float64
}

// Around binds the test to anchor a, paying its one cosine.
func (t *RadiusTest) Around(a LatLon) Disk {
	cosA := CosLat(a)
	d := Disk{anchor: a, cosA: cosA, hlMax: t.hlMax, radius: t.radius, acceptDeg: -1}
	if t.huMax >= 0 {
		const k2 = (math.Pi / 360) * (math.Pi / 360)
		d.w = cosA * min(1, cosA+2*math.Sqrt(t.huMax))
		d.acceptDeg = t.huMax / k2
	}
	return d
}

// Contains reports whether Distance(anchor, p) <= radius. The common
// outcome in stay detection — a fix well inside the radius — is decided
// by the accept test alone, which runs first.
func (d *Disk) Contains(p LatLon) bool {
	dLat := d.anchor.Lat - p.Lat
	dLon := d.anchor.Lon - p.Lon
	if dLat*dLat+d.w*dLon*dLon <= d.acceptDeg {
		return true
	}
	return d.decide(p, dLat, dLon)
}

// decide is the rest of Contains, kept out of line so the accept test
// inlines into scan loops.
func (d *Disk) decide(p LatLon, dLat, dLon float64) bool {
	absDLat := math.Abs(dLat)
	ccLo := max(0, d.cosA-deg2rad(absDLat))
	if lowerH(absDLat, math.Abs(dLon), d.cosA*ccLo) > d.hlMax {
		return false
	}
	return Distance(d.anchor, p) <= d.radius
}
