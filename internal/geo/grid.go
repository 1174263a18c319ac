package geo

import "math"

// GridIndex is a uniform spatial hash over lat/lon points supporting
// radius and nearest-point queries. It backs poi.DB: the visit snap and
// the synthetic world's venue lookups over tens of thousands of POIs.
//
// The index buckets points into cells of cellMeters on a side in a local
// equirectangular projection; a radius query scans only the cells
// overlapping the query disk and verifies candidates with an exact
// distance check.
//
// Storage is struct-of-arrays: point indices grouped cell by cell in one
// flat slice (order), with a small span per occupied cell, plus per-point
// projected coordinates, E7 coordinates and latitude cosines precomputed at
// build time. Queries therefore walk contiguous arrays and decide most
// candidates with integer and certified fast-bound tests (see
// fastdist.go), calling the trigonometric haversine only for borderline
// candidates — results are bit-identical to checking Distance directly.
type GridIndex struct {
	proj *Projection
	cell float64
	pts  []LatLon

	spans  map[gridKey]cellSpan
	order  []int32   // point indices grouped by cell, ascending within a cell
	px, py []float64 // projected planar meters per point
	cosLat []float64 // CosLat per point
	latE7  []int32   // E7 latitude per point
	lonE7  []int32   // E7 longitude per point

	// Occupied-cell extent, precomputed so NearestWithin can bound its ring
	// expansion in O(1) instead of scanning every cell per query.
	minCX, maxCX, minCY, maxCY int32
}

type gridKey struct{ cx, cy int32 }

// cellSpan is a [start, end) range into GridIndex.order.
type cellSpan struct{ start, end int32 }

// NewGridIndex builds an index over pts with the given cell size in
// meters. cellMeters should be on the order of the typical query radius;
// values <= 0 default to 500 m. The slice is not retained beyond copying.
func NewGridIndex(pts []LatLon, cellMeters float64) *GridIndex {
	if cellMeters <= 0 {
		cellMeters = 500
	}
	origin := LatLon{}
	if len(pts) > 0 {
		origin = BoundsOf(pts).Center()
	}
	g := &GridIndex{
		proj: NewProjection(origin),
		cell: cellMeters,
		pts:  append([]LatLon(nil), pts...),
	}
	n := len(g.pts)
	g.px = make([]float64, n)
	g.py = make([]float64, n)
	g.cosLat = make([]float64, n)
	g.latE7 = make([]int32, n)
	g.lonE7 = make([]int32, n)
	g.order = make([]int32, n)
	keys := make([]gridKey, n)
	counts := make(map[gridKey]int32, n/4+1)
	for i, p := range g.pts {
		x, y := g.proj.ToXY(p)
		g.px[i], g.py[i] = x, y
		g.cosLat[i] = CosLat(p)
		g.latE7[i] = E7(p.Lat)
		g.lonE7[i] = E7(p.Lon)
		k := gridKey{cx: int32(math.Floor(x / g.cell)), cy: int32(math.Floor(y / g.cell))}
		keys[i] = k
		counts[k]++
		if i == 0 {
			g.minCX, g.maxCX = k.cx, k.cx
			g.minCY, g.maxCY = k.cy, k.cy
			continue
		}
		if k.cx < g.minCX {
			g.minCX = k.cx
		}
		if k.cx > g.maxCX {
			g.maxCX = k.cx
		}
		if k.cy < g.minCY {
			g.minCY = k.cy
		}
		if k.cy > g.maxCY {
			g.maxCY = k.cy
		}
	}
	// Assign each occupied cell a contiguous span, then fill it using the
	// span end as a cursor. Points land in ascending index order within
	// their cell because the fill walks points in order.
	g.spans = make(map[gridKey]cellSpan, len(counts))
	var off int32
	for i := 0; i < n; i++ {
		k := keys[i]
		if _, ok := g.spans[k]; !ok {
			g.spans[k] = cellSpan{start: off, end: off}
			off += counts[k]
		}
	}
	for i := 0; i < n; i++ {
		k := keys[i]
		sp := g.spans[k]
		g.order[sp.end] = int32(i)
		sp.end++
		g.spans[k] = sp
	}
	return g
}

func (g *GridIndex) keyFor(p LatLon) gridKey {
	x, y := g.proj.ToXY(p)
	return gridKey{cx: int32(math.Floor(x / g.cell)), cy: int32(math.Floor(y / g.cell))}
}

// Len returns the number of indexed points.
func (g *GridIndex) Len() int { return len(g.pts) }

// Point returns the indexed point at position i.
func (g *GridIndex) Point(i int) LatLon { return g.pts[i] }

// Within appends to dst the indices of all points within radius meters of
// q (great-circle distance) and returns the extended slice. Order is
// unspecified.
func (g *GridIndex) Within(q LatLon, radius float64, dst []int) []int {
	if radius < 0 || len(g.pts) == 0 {
		return dst
	}
	qx, qy := g.proj.ToXY(q)
	cosQ := CosLat(q)
	qLatE7 := E7(q.Lat)
	maxDLat := MaxE7LatDiff(radius)
	planar := (radius + g.cell) * (radius + g.cell)
	r := int32(math.Ceil(radius / g.cell))
	ck := g.keyFor(q)
	for cy := ck.cy - r; cy <= ck.cy+r; cy++ {
		for cx := ck.cx - r; cx <= ck.cx+r; cx++ {
			sp, ok := g.spans[gridKey{cx, cy}]
			if !ok {
				continue
			}
			for _, idx := range g.order[sp.start:sp.end] {
				// Integer bounding-box reject: certified farther than
				// radius on latitude separation alone.
				dE7 := g.latE7[idx] - qLatE7
				if dE7 < 0 {
					dE7 = -dE7
				}
				if dE7 > maxDLat {
					continue
				}
				// Cheap planar prefilter before the exact test.
				dx, dy := g.px[idx]-qx, g.py[idx]-qy
				if dx*dx+dy*dy > planar {
					continue
				}
				p := g.pts[idx]
				lb, ub := DistBounds(q, p, cosQ*g.cosLat[idx])
				if lb > radius {
					continue
				}
				if ub <= radius || Distance(q, p) <= radius {
					dst = append(dst, int(idx))
				}
			}
		}
	}
	return dst
}

// NearestWithin returns the index of the point closest to q among those
// within maxDist meters (great-circle), and its distance, or (-1, +Inf)
// when no indexed point is that close. maxDist may be +Inf for an
// unbounded search.
//
// The search expands ring by ring around q's cell — each ring's
// perimeter row-major, each cell's points in ascending index — and keeps
// the first strictly nearer point, so ties go to the earliest point in
// that order. It stops once a ring's extent covers the best distance,
// and never goes past ring ceil(maxDist/cell). Candidates outside q's
// certified E7 box are rejected with integer compares before any float
// work, and cells that cannot hold such a candidate are not visited;
// when the box crosses the antimeridian the rings around q's image 360°
// away are searched too.
func (g *GridIndex) NearestWithin(q LatLon, maxDist float64) (int, float64) {
	if len(g.pts) == 0 || !(maxDist >= 0) {
		return -1, math.Inf(1)
	}
	cosQ := CosLat(q)
	s := nearestSearch{
		q: q, cosQ: cosQ, box: newE7Box(q, cosQ, maxDist), maxDist: maxDist,
		hlMax: hlLimit(maxDist), hlBest: math.Inf(1), best: -1, bestDist: math.Inf(1),
	}
	g.searchRings(&s, q)
	if lon, ok := s.box.wraps(q.Lon); ok {
		g.searchRings(&s, LatLon{Lat: q.Lat, Lon: lon})
	}
	return s.best, s.bestDist
}

// nearestSearch is the state of one NearestWithin query.
type nearestSearch struct {
	q        LatLon
	cosQ     float64
	box      e7Box
	maxDist  float64
	hlMax    float64 // hlLimit(maxDist)
	hlBest   float64 // hlLimit(bestDist)
	best     int
	bestDist float64
}

// searchRings runs the ring expansion of NearestWithin around the cell
// of c, which is the query point or its image 360° away.
func (g *GridIndex) searchRings(s *nearestSearch, c LatLon) {
	ck := g.keyFor(c)
	// Cells that can hold a point inside the box: the projection is
	// monotone in each coordinate, so the cells of the box's edges (plus
	// a unit of E7 rounding each side) bound those of every point in it.
	x0, x1, y0, y1 := g.minCX, g.maxCX, g.minCY, g.maxCY
	if s.box.dLat < math.MaxInt32 {
		w := float64(s.box.dLat+2)*1e-7 + 1e-9
		y0 = max(y0, g.keyFor(LatLon{Lat: c.Lat - w, Lon: c.Lon}).cy)
		y1 = min(y1, g.keyFor(LatLon{Lat: c.Lat + w, Lon: c.Lon}).cy)
	}
	if s.box.dLon < e7Span/2 {
		w := float64(s.box.dLon+2)*1e-7 + 1e-9
		x0 = max(x0, g.keyFor(LatLon{Lat: c.Lat, Lon: c.Lon - w}).cx)
		x1 = min(x1, g.keyFor(LatLon{Lat: c.Lat, Lon: c.Lon + w}).cx)
	}
	// Rings needed to cover those cells, capped by maxDist.
	maxRing := max(ck.cx-x0, x1-ck.cx, ck.cy-y0, y1-ck.cy)
	if capRing := math.Ceil(s.maxDist / g.cell); capRing < float64(maxRing) {
		maxRing = int32(capRing)
	}
	for ring := int32(0); ring <= maxRing; ring++ {
		for cy := max(ck.cy-ring, y0); cy <= min(ck.cy+ring, y1); cy++ {
			for cx := max(ck.cx-ring, x0); cx <= min(ck.cx+ring, x1); cx++ {
				// Only the ring perimeter; inner cells were already scanned.
				if ring > 0 && cx != ck.cx-ring && cx != ck.cx+ring &&
					cy != ck.cy-ring && cy != ck.cy+ring {
					continue
				}
				sp, ok := g.spans[gridKey{cx, cy}]
				if !ok {
					continue
				}
				for _, idx := range g.order[sp.start:sp.end] {
					if s.box.rejects(g.latE7[idx], g.lonE7[idx]) {
						continue
					}
					p := g.pts[idx]
					// A candidate whose certified lower bound exceeds
					// maxDist or meets the incumbent cannot win (d >= lb
					// fails d <= maxDist or d < bestDist); skip the
					// haversine. The bound is compared squared.
					hl := lowerH(math.Abs(s.q.Lat-p.Lat), math.Abs(s.q.Lon-p.Lon), s.cosQ*g.cosLat[idx])
					if hl > s.hlMax || hl >= s.hlBest {
						continue
					}
					if d := Distance(s.q, p); d <= s.maxDist && d < s.bestDist {
						s.bestDist = d
						s.hlBest = hlLimit(d)
						s.best = int(idx)
					}
				}
			}
		}
		// A point in a later ring is more than ring·cell away in the
		// projection, so it cannot beat a best distance within that.
		if s.best >= 0 && s.bestDist <= float64(ring)*g.cell {
			return
		}
	}
}
