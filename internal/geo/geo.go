// Package geo provides the geodesic substrate for the geosocial validator:
// latitude/longitude points, great-circle and fast equirectangular
// distances, bearings, destination-point computation, bounding boxes and a
// uniform grid index for radius queries over large point sets.
//
// All distances are in meters, all angles in degrees unless noted. The
// Earth is modeled as a sphere of radius EarthRadius, which introduces
// < 0.5 % error versus the WGS-84 ellipsoid — far below the 500 m matching
// threshold the paper uses.
package geo

import (
	"fmt"
	"math"
)

// EarthRadius is the mean Earth radius in meters (IUGG).
const EarthRadius = 6371008.8

// LatLon is a geographic coordinate in decimal degrees.
type LatLon struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// String implements fmt.Stringer.
func (p LatLon) String() string {
	return fmt.Sprintf("(%.6f,%.6f)", p.Lat, p.Lon)
}

// Valid reports whether the point lies inside the conventional coordinate
// domain: latitude in [-90, 90], longitude in [-180, 180].
func (p LatLon) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// Distance returns the great-circle (haversine) distance in meters between
// a and b.
func Distance(a, b LatLon) float64 {
	lat1 := deg2rad(a.Lat)
	lat2 := deg2rad(b.Lat)
	dLat := lat2 - lat1
	dLon := deg2rad(b.Lon - a.Lon)
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadius * math.Asin(math.Sqrt(h))
}

// The sine and cosine of the two bearings the synthetic generator
// displaces every fix by (north, then east), computed by the same
// expressions Destination applies to any other bearing.
var (
	sinNorth, cosNorth = math.Sin(deg2rad(0)), math.Cos(deg2rad(0))
	sinEast, cosEast   = math.Sin(deg2rad(90)), math.Cos(deg2rad(90))
)

// Destination returns the point reached by traveling dist meters from p on
// the given initial bearing (degrees).
//
// Each sine and cosine is evaluated once, and those of the bearings 0 and
// 90 (matched on exact bits, so -0 takes the general path) come from
// package-level values: the result is bit-identical to evaluating every
// trigonometric call in place.
func Destination(p LatLon, bearingDeg, dist float64) LatLon {
	ad := dist / EarthRadius
	lat1 := deg2rad(p.Lat)
	lon1 := deg2rad(p.Lon)
	var sinBr, cosBr float64
	switch math.Float64bits(bearingDeg) {
	case math.Float64bits(0):
		sinBr, cosBr = sinNorth, cosNorth
	case math.Float64bits(90):
		sinBr, cosBr = sinEast, cosEast
	default:
		br := deg2rad(bearingDeg)
		sinBr, cosBr = math.Sin(br), math.Cos(br)
	}
	sinLat1, cosLat1 := math.Sin(lat1), math.Cos(lat1)
	sinAd, cosAd := math.Sin(ad), math.Cos(ad)
	sinLat2 := sinLat1*cosAd + cosLat1*sinAd*cosBr
	lat2 := math.Asin(sinLat2)
	y := sinBr * sinAd * cosLat1
	x := cosAd - sinLat1*sinLat2
	lon2 := lon1 + math.Atan2(y, x)
	out := LatLon{Lat: rad2deg(lat2), Lon: rad2deg(lon2)}
	// Normalize longitude to [-180, 180].
	for out.Lon > 180 {
		out.Lon -= 360
	}
	for out.Lon < -180 {
		out.Lon += 360
	}
	return out
}

// Interpolate returns the point a fraction f of the way from a to b along
// the straight (equirectangular) segment. f outside [0,1] extrapolates.
// For the sub-100 km hops in this repository the planar interpolation error
// is negligible.
func Interpolate(a, b LatLon, f float64) LatLon {
	return LatLon{
		Lat: a.Lat + (b.Lat-a.Lat)*f,
		Lon: a.Lon + (b.Lon-a.Lon)*f,
	}
}

// BBox is a latitude/longitude axis-aligned bounding box.
type BBox struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// Contains reports whether p lies inside the box (inclusive).
func (b BBox) Contains(p LatLon) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Center returns the box center.
func (b BBox) Center() LatLon {
	return LatLon{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// Expand grows the box by the given margin in meters on every side.
func (b BBox) Expand(margin float64) BBox {
	dLat := rad2deg(margin / EarthRadius)
	// Longitude degrees shrink with latitude; use the worst (widest) case.
	lat := math.Max(math.Abs(b.MinLat), math.Abs(b.MaxLat))
	cos := math.Cos(deg2rad(lat))
	if cos < 1e-6 {
		cos = 1e-6
	}
	dLon := rad2deg(margin / (EarthRadius * cos))
	return BBox{
		MinLat: b.MinLat - dLat, MinLon: b.MinLon - dLon,
		MaxLat: b.MaxLat + dLat, MaxLon: b.MaxLon + dLon,
	}
}

// BoundsOf returns the tight bounding box of pts. It returns a zero box if
// pts is empty.
func BoundsOf(pts []LatLon) BBox {
	if len(pts) == 0 {
		return BBox{}
	}
	b := BBox{MinLat: pts[0].Lat, MaxLat: pts[0].Lat, MinLon: pts[0].Lon, MaxLon: pts[0].Lon}
	for _, p := range pts[1:] {
		if p.Lat < b.MinLat {
			b.MinLat = p.Lat
		}
		if p.Lat > b.MaxLat {
			b.MaxLat = p.Lat
		}
		if p.Lon < b.MinLon {
			b.MinLon = p.Lon
		}
		if p.Lon > b.MaxLon {
			b.MaxLon = p.Lon
		}
	}
	return b
}

// Projection is a local equirectangular (east-north) projection anchored at
// an origin, converting lat/lon to planar meters. It is accurate for
// regions up to ~100 km across, which matches the synthetic city and MANET
// arena sizes used here.
type Projection struct {
	origin LatLon
	cosLat float64
}

// NewProjection returns a projection anchored at origin.
func NewProjection(origin LatLon) *Projection {
	c := math.Cos(deg2rad(origin.Lat))
	if c < 1e-9 {
		c = 1e-9
	}
	return &Projection{origin: origin, cosLat: c}
}

// Origin returns the projection anchor.
func (pr *Projection) Origin() LatLon { return pr.origin }

// ToXY converts p to planar meters east (x) and north (y) of the origin.
func (pr *Projection) ToXY(p LatLon) (x, y float64) {
	x = deg2rad(p.Lon-pr.origin.Lon) * EarthRadius * pr.cosLat
	y = deg2rad(p.Lat-pr.origin.Lat) * EarthRadius
	return x, y
}

// ToLatLon converts planar meters back to a geographic coordinate.
func (pr *Projection) ToLatLon(x, y float64) LatLon {
	return LatLon{
		Lat: pr.origin.Lat + rad2deg(y/EarthRadius),
		Lon: pr.origin.Lon + rad2deg(x/(EarthRadius*pr.cosLat)),
	}
}
