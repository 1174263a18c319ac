package core

import (
	"testing"

	"geosocial/internal/trace"
)

// validate runs ValidateDataset on ds and fails the test on error.
func validate(t *testing.T, ds *trace.Dataset) ([]UserOutcome, Partition) {
	t.Helper()
	outs, part, err := NewValidator().ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	return outs, part
}

// TestValidateDatasetEmpty covers the zero-user edge case.
func TestValidateDatasetEmpty(t *testing.T) {
	outs, part := validate(t, &trace.Dataset{Name: "empty"})
	if len(outs) != 0 {
		t.Fatalf("got %d outcomes for empty dataset", len(outs))
	}
	if part != (Partition{}) {
		t.Fatalf("non-zero partition %+v for empty dataset", part)
	}
}

// TestValidateDatasetSingleUserNoCheckins covers a one-user dataset whose
// user has GPS fixes but zero checkins: every visit must come out missing.
func TestValidateDatasetSingleUserNoCheckins(t *testing.T) {
	var gps trace.GPSTrace
	for m := int64(0); m <= 30; m++ {
		gps = append(gps, trace.GPSPoint{T: m * 60, Loc: at(3)})
	}
	u := &trace.User{ID: 0, Days: 1, GPS: gps}
	ds := &trace.Dataset{Name: "one-user", Users: []*trace.User{u}}
	outs, part := validate(t, ds)
	if len(outs) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(outs))
	}
	if part.Checkins != 0 || part.Honest != 0 {
		t.Fatalf("partition %+v, want zero checkins", part)
	}
	if part.Visits == 0 || part.Missing != part.Visits {
		t.Fatalf("partition %+v, want all visits missing", part)
	}
	if outs[0].Match.IsHonest(0) {
		t.Fatal("IsHonest(0) true for a user with no checkins")
	}
}
