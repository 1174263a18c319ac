package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "fig1") || !strings.Contains(got, "table1") {
		t.Errorf("experiment list missing expected IDs:\n%s", got)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-scale", "0.03", "-seed", "7", "-exp", "fig1", "-workers", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "study generated and validated") {
		t.Errorf("missing study banner:\n%s", got)
	}
	if !strings.Contains(strings.ToLower(got), "honest") {
		t.Errorf("fig1 report missing partition content:\n%s", got)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run([]string{"-scale", "0.03", "-exp", "nonsense"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("expected error for unknown experiment ID")
	}
}

// TestRunRejectsNonPositiveScale: the study generator reads scale 0 as
// the full study, so the tool must refuse it (and negative scales)
// itself.
func TestRunRejectsNonPositiveScale(t *testing.T) {
	for _, scale := range []string{"0", "-1"} {
		if err := run([]string{"-scale", scale, "-exp", "fig1"}, &bytes.Buffer{}); err == nil {
			t.Errorf("-scale %s accepted", scale)
		}
	}
}
