package eval

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRenderAlignment(t *testing.T) {
	tb := Table{
		Title:  "T",
		Header: []string{"a", "long-column"},
		Rows: [][]string{
			{"x", "1"},
			{"longer-cell", "2"},
		},
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// Title + header + rule + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	// The "1" and "2" cells must start at the same column.
	h := strings.Index(lines[3], "1")
	r := strings.Index(lines[4], "2")
	if h != r {
		t.Errorf("columns misaligned: %d vs %d\n%s", h, r, buf.String())
	}
}

func TestFigureRender(t *testing.T) {
	f := Figure{
		Title:  "Fig",
		XLabel: "x",
		YLabel: "y",
		X:      []float64{1, 10, 100},
		Series: []Series{
			{Name: "s1", Y: []float64{0, 50, 100}},
			{Name: "short", Y: []float64{5}}, // shorter than X: renders "-"
		},
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"s1", "short", "100", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestReportRender(t *testing.T) {
	r := Report{
		ID:    "test",
		Title: "A title",
		Tables: []Table{{
			Header: []string{"k", "v"},
			Rows:   [][]string{{"a", "b"}},
		}},
		Figures: []Figure{{
			Title: "f", XLabel: "x", YLabel: "y",
			X:      []float64{1},
			Series: []Series{{Name: "s", Y: []float64{2}}},
		}},
		Notes: []string{"hello"},
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"=== test: A title ===", "note: hello", "k", "s"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFmtNum(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{0.5, "0.5000"},
		{5, "5.00"},
		{123.4, "123.4"},
		{12345, "1.23e+04"},
		{0.0001, "0.0001"},
	}
	for _, tc := range tests {
		if got := fmtNum(tc.in); got != tc.want {
			t.Errorf("fmtNum(%g) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry()) {
		t.Fatalf("IDs (%d) and Registry (%d) out of sync", len(ids), len(Registry()))
	}
	if ids[0] != "table1" || ids[len(ids)-1] != "fig8" {
		t.Errorf("presentation order broken: %v", ids)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run(&Context{}, "nope"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}
