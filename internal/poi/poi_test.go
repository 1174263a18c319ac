package poi

import (
	"math"
	"testing"

	"geosocial/internal/geo"
	"geosocial/internal/rng"
)

func TestCategoryString(t *testing.T) {
	if Professional.String() != "Professional" || College.String() != "College" {
		t.Error("category names wrong")
	}
	if got := Category(99).String(); got != "Category(99)" {
		t.Errorf("out-of-range = %q", got)
	}
}

func TestCategoryParseRoundTrip(t *testing.T) {
	for _, c := range Categories() {
		got, err := ParseCategory(c.String())
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if got != c {
			t.Errorf("round trip %v -> %v", c, got)
		}
	}
	if _, err := ParseCategory("Nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestCategoriesComplete(t *testing.T) {
	if len(Categories()) != 9 || NumCategories != 9 {
		t.Fatalf("expected 9 categories, got %d", len(Categories()))
	}
	if len(CategoryNames()) != 9 {
		t.Fatal("names incomplete")
	}
	for _, c := range Categories() {
		if !c.Valid() {
			t.Errorf("%v invalid", c)
		}
	}
	if Category(-1).Valid() || Category(9).Valid() {
		t.Error("out-of-range valid")
	}
}

func TestRoutineCategories(t *testing.T) {
	routine := map[Category]bool{
		Professional: true, Shop: true, Food: true, Residence: true, College: true,
	}
	for _, c := range Categories() {
		if got := c.Routine(); got != routine[c] {
			t.Errorf("Routine(%v) = %v", c, got)
		}
	}
}

func TestNewDBValidation(t *testing.T) {
	base := geo.LatLon{Lat: 34, Lon: -119}
	good := []POI{
		{ID: 0, Category: Food, Loc: base},
		{ID: 1, Category: Shop, Loc: geo.Destination(base, 0, 100)},
	}
	if _, err := NewDB(good); err != nil {
		t.Fatalf("valid POIs rejected: %v", err)
	}
	if err := ValidateTable(good); err != nil {
		t.Fatalf("ValidateTable rejected valid POIs: %v", err)
	}
	for name, pois := range map[string][]POI{
		"bad id":       {{ID: 5, Category: Food, Loc: base}},
		"bad loc":      {{ID: 0, Category: Food, Loc: geo.LatLon{Lat: 99, Lon: 0}}},
		"bad category": {{ID: 0, Category: Category(42), Loc: base}},
	} {
		_, err := NewDB(pois)
		if err == nil {
			t.Errorf("%s accepted", name)
			continue
		}
		// One copy of the rules: the table check fails the same way.
		if verr := ValidateTable(pois); verr == nil || verr.Error() != err.Error() {
			t.Errorf("%s: ValidateTable = %v, NewDB = %v", name, verr, err)
		}
	}
}

func TestDBLookups(t *testing.T) {
	base := geo.LatLon{Lat: 34, Lon: -119}
	db, err := NewDB([]POI{
		{ID: 0, Category: Food, Loc: base},
		{ID: 1, Category: Shop, Loc: geo.Destination(base, 90, 300)},
		{ID: 2, Category: Arts, Loc: geo.Destination(base, 90, 5000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Fatalf("Len = %d", db.Len())
	}
	p, err := db.Get(1)
	if err != nil || p.Category != Shop {
		t.Fatalf("Get(1) = %+v, %v", p, err)
	}
	if _, err := db.Get(-1); err == nil {
		t.Error("Get(-1) succeeded")
	}
	if _, err := db.Get(3); err == nil {
		t.Error("Get(3) succeeded")
	}
	ids := db.Within(base, 400, nil)
	if len(ids) != 2 {
		t.Fatalf("Within(400m) = %v", ids)
	}
	q := geo.Destination(base, 90, 280)
	for _, maxDist := range []float64{math.Inf(1), 100} {
		near, dist, ok := db.NearestWithin(q, maxDist)
		if !ok || near.ID != 1 || math.Abs(dist-20) > 1 {
			t.Fatalf("NearestWithin(%g) = %+v (dist %.0f, ok %v)", maxDist, near, dist, ok)
		}
	}
	if near, dist, ok := db.NearestWithin(q, 10); ok {
		t.Fatalf("NearestWithin(10) = %+v (dist %.0f), want none", near, dist)
	}
}

func TestGenerateCity(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.POICount = 400
	db, err := GenerateCity(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 400 {
		t.Fatalf("Len = %d", db.Len())
	}
	// All POIs inside the city bounds (radius + cluster spread slack).
	seen := map[Category]int{}
	for _, p := range db.All() {
		d := geo.Distance(cfg.Center, p.Loc)
		if d > cfg.RadiusMeters+6*cfg.ClusterSigma {
			t.Fatalf("POI %d placed %.0f m out", p.ID, d)
		}
		seen[p.Category]++
		if p.Popularity <= 0 || p.Popularity > 1 {
			t.Fatalf("POI %d popularity %g", p.ID, p.Popularity)
		}
	}
	// Every category appears in a 400-venue city.
	for _, c := range Categories() {
		if seen[c] == 0 {
			t.Errorf("category %v absent", c)
		}
	}
	// Food should outnumber Arts by the configured mix.
	if seen[Food] <= seen[Arts] {
		t.Errorf("mix violated: food=%d arts=%d", seen[Food], seen[Arts])
	}
}

func TestGenerateCityDeterministic(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.POICount = 100
	a, err := GenerateCity(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCity(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		pa, _ := a.Get(i)
		pb, _ := b.Get(i)
		if pa != pb {
			t.Fatalf("POI %d differs across identical seeds", i)
		}
	}
}

func TestGenerateCityPopularityDowntownBias(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.POICount = 1000
	db, err := GenerateCity(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Mean distance-to-center of the top popularity decile must be well
	// below the overall mean (hot venues concentrate downtown).
	all := db.All()
	var top, rest []POI
	for _, p := range all {
		if p.Popularity > 1.0/100 { // top ~100 ranks of Zipf(1)
			top = append(top, p)
		} else {
			rest = append(rest, p)
		}
	}
	mean := func(ps []POI) float64 {
		var sum float64
		for _, p := range ps {
			sum += geo.Distance(cfg.Center, p.Loc)
		}
		return sum / float64(len(ps))
	}
	if len(top) == 0 || len(rest) == 0 {
		t.Fatal("popularity split degenerate")
	}
	if mt, mr := mean(top), mean(rest); mt >= mr*0.85 {
		t.Errorf("top venues not downtown-biased: top=%.0f m rest=%.0f m", mt, mr)
	}
}

func TestGenerateCityErrors(t *testing.T) {
	s := rng.New(1)
	bad := DefaultCityConfig()
	bad.POICount = 0
	if _, err := GenerateCity(bad, s); err == nil {
		t.Error("POICount=0 accepted")
	}
	bad = DefaultCityConfig()
	bad.ClusterCount = 0
	if _, err := GenerateCity(bad, s); err == nil {
		t.Error("ClusterCount=0 accepted")
	}
	bad = DefaultCityConfig()
	bad.RadiusMeters = 0
	if _, err := GenerateCity(bad, s); err == nil {
		t.Error("RadiusMeters=0 accepted")
	}
}

func TestZipfPopularityDistribution(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.POICount = 500
	db, err := GenerateCity(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one POI per rank: popularity values must all be distinct
	// 1/r^1 values.
	seen := map[float64]bool{}
	maxPop := 0.0
	for _, p := range db.All() {
		if seen[p.Popularity] {
			t.Fatalf("duplicate popularity %g", p.Popularity)
		}
		seen[p.Popularity] = true
		maxPop = math.Max(maxPop, p.Popularity)
	}
	if maxPop != 1 {
		t.Errorf("top popularity %g, want 1", maxPop)
	}
}
