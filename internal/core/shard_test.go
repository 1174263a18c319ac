package core

import (
	"bytes"
	"testing"

	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

// onGridDataset generates a dataset and round-trips it through the
// binary codec so its coordinates sit on the E7 grid — binary shard
// streams then decode to exactly these users.
func onGridDataset(t *testing.T, scale float64, seed uint64) *trace.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(scale), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	onGrid, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return onGrid
}

// TestTruthCountsRoundTrip pins the serializable snapshot against the
// accumulator it came from.
func TestTruthCountsRoundTrip(t *testing.T) {
	ds := onGridDataset(t, 0.03, 21)
	outs, _, err := NewValidator().ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	var whole TruthAccum
	for _, o := range outs {
		whole.Add(o)
	}
	var restored TruthAccum
	restored.AddCounts(whole.Counts())
	if restored != whole {
		t.Fatalf("Counts/AddCounts round trip: %+v vs %+v", restored, whole)
	}
	want, err := whole.Score()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Score()
	if err != nil || got != want {
		t.Fatalf("restored score %+v (%v), want %+v", got, err, want)
	}
}

// TestPartitionMerge pins Merge against element-wise addition and the
// zero identity.
func TestPartitionMerge(t *testing.T) {
	a := Partition{Checkins: 1, Visits: 2, Honest: 3, Extraneous: 4, Missing: 5}
	b := Partition{Checkins: 10, Visits: 20, Honest: 30, Extraneous: 40, Missing: 50}
	got := a
	got.Merge(b)
	want := Partition{Checkins: 11, Visits: 22, Honest: 33, Extraneous: 44, Missing: 55}
	if got != want {
		t.Fatalf("merge %+v, want %+v", got, want)
	}
	got.Merge(Partition{})
	if got != want {
		t.Fatalf("zero merge changed the partition: %+v", got)
	}
}

// TestTruthAccumMerge checks that per-shard accumulators merged in any
// order score exactly like one accumulator over all outcomes.
func TestTruthAccumMerge(t *testing.T) {
	ds := onGridDataset(t, 0.03, 21)
	outs, _, err := NewValidator().ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	var whole TruthAccum
	for _, o := range outs {
		whole.Add(o)
	}
	want, err := whole.Score()
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]TruthAccum, 3)
	for i, o := range outs {
		shards[i%3].Add(o)
	}
	// Merge in reverse order to exercise commutativity.
	var merged TruthAccum
	for i := len(shards) - 1; i >= 0; i-- {
		merged.Merge(shards[i])
	}
	got, err := merged.Score()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("merged score %+v, want %+v", got, want)
	}
}
