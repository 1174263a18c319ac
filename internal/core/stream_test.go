package core

import (
	"io"
	"testing"

	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

// TestTruthAccumMatchesScore pins the incremental scorer to the batch
// one.
func TestTruthAccumMatchesScore(t *testing.T) {
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(0.03), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := NewValidator().ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ScoreAgainstTruth(outs)
	if err != nil {
		t.Fatal(err)
	}
	var a TruthAccum
	for _, o := range outs {
		a.Add(o)
	}
	got, err := a.Score()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("incremental score %+v, batch %+v", got, want)
	}
	var empty TruthAccum
	if _, err := empty.Score(); err == nil {
		t.Error("empty accumulator scored without error")
	}
	if empty.Labeled() != 0 {
		t.Error("empty accumulator reports labels")
	}
}

// TestDatasetSourceEOF checks the in-memory source terminates cleanly.
func TestDatasetSourceEOF(t *testing.T) {
	ds := &trace.Dataset{Users: []*trace.User{{ID: 0}, {ID: 1}}}
	src := ds.Source()
	for i := 0; i < 2; i++ {
		u, err := src.Next()
		if err != nil || u.ID != i {
			t.Fatalf("user %d: %v, err %v", i, u, err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := src.Next(); err != io.EOF {
			t.Fatalf("exhausted source returned %v, want io.EOF", err)
		}
	}
}
