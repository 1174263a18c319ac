// Package poi models points of interest (POIs) — the venues users visit
// and check in at. It provides the nine Foursquare top-level categories the
// paper uses for its Figure 4 breakdown, a POI database with spatial
// indexing, and a synthetic city generator that places POIs into
// downtown/suburb clusters with Zipf-distributed popularity.
package poi

import (
	"fmt"

	"geosocial/internal/geo"
)

// Category is a Foursquare top-level POI category. The paper breaks
// missing checkins down over these nine categories (Figure 4).
type Category int

// The nine Foursquare top-level categories, in the paper's Figure 4
// display order.
const (
	Professional Category = iota
	Outdoors
	Nightlife
	Arts
	Shop
	Travel
	Residence
	Food
	College
	numCategories
)

// NumCategories is the number of POI categories.
const NumCategories = int(numCategories)

var categoryNames = [...]string{
	"Professional", "Outdoors", "Nightlife", "Arts", "Shop",
	"Travel", "Residence", "Food", "College",
}

// String implements fmt.Stringer.
func (c Category) String() string {
	if c < 0 || int(c) >= NumCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Valid reports whether c is one of the nine known categories.
func (c Category) Valid() bool { return c >= 0 && int(c) < NumCategories }

// Categories returns all nine categories in display order.
func Categories() []Category {
	out := make([]Category, NumCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// CategoryNames returns the nine category names in display order.
func CategoryNames() []string {
	return append([]string(nil), categoryNames[:]...)
}

// Routine reports whether the category is a "boring or routine" place in
// the paper's sense (§4.2): locations tied to daily routine — work,
// shopping, eating, home, campus — where users typically do not bother to
// check in. These categories dominate missing checkins.
func (c Category) Routine() bool {
	switch c {
	case Professional, Shop, Food, Residence, College:
		return true
	default:
		return false
	}
}

// POI is a point of interest.
type POI struct {
	ID       int        `json:"id"`
	Name     string     `json:"name"`
	Category Category   `json:"category"`
	Loc      geo.LatLon `json:"loc"`
	// Popularity is the relative visit attractiveness used by the
	// synthetic world; higher is more visited. It is Zipf-distributed
	// over the city and plays no role in analysis code.
	Popularity float64 `json:"popularity,omitempty"`
}

// DB is an immutable collection of POIs with spatial and ID lookup.
type DB struct {
	pois []POI
	grid *geo.GridIndex
}

// ValidateTable checks the rules every POI table must satisfy: IDs equal
// their index (the synthetic generator guarantees this; loaders should
// renumber otherwise), locations are valid and categories known. NewDB
// applies it; codecs that only carry a table call it without building
// the spatial index.
func ValidateTable(pois []POI) error {
	for i, p := range pois {
		if p.ID != i {
			return fmt.Errorf("poi: POI at index %d has ID %d (must equal index)", i, p.ID)
		}
		if !p.Loc.Valid() {
			return fmt.Errorf("poi: POI %d has invalid location %v", p.ID, p.Loc)
		}
		if !p.Category.Valid() {
			return fmt.Errorf("poi: POI %d has invalid category %d", p.ID, int(p.Category))
		}
	}
	return nil
}

// NewDB builds a database over the given POIs, which must pass
// ValidateTable.
func NewDB(pois []POI) (*DB, error) {
	if err := ValidateTable(pois); err != nil {
		return nil, err
	}
	pts := make([]geo.LatLon, len(pois))
	for i, p := range pois {
		pts[i] = p.Loc
	}
	return &DB{pois: append([]POI(nil), pois...), grid: geo.NewGridIndex(pts, 500)}, nil
}

// Len returns the number of POIs.
func (db *DB) Len() int { return len(db.pois) }

// Get returns the POI with the given ID.
func (db *DB) Get(id int) (POI, error) {
	if id < 0 || id >= len(db.pois) {
		return POI{}, fmt.Errorf("poi: no POI with ID %d", id)
	}
	return db.pois[id], nil
}

// All returns a copy of all POIs.
func (db *DB) All() []POI { return append([]POI(nil), db.pois...) }

// Within appends the IDs of POIs within radius meters of q to dst.
func (db *DB) Within(q geo.LatLon, radius float64, dst []int) []int {
	return db.grid.Within(q, radius, dst)
}

// NearestWithin returns the POI nearest to q among those within maxDist
// meters, and its distance. The boolean is false when no POI is that
// close; maxDist may be +Inf. Ties go to the POI the grid's ring scan
// reaches first (see geo.GridIndex.NearestWithin).
func (db *DB) NearestWithin(q geo.LatLon, maxDist float64) (POI, float64, bool) {
	idx, dist := db.grid.NearestWithin(q, maxDist)
	if idx < 0 {
		return POI{}, 0, false
	}
	return db.pois[idx], dist, true
}
