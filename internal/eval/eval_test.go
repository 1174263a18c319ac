package eval

import (
	"bytes"
	"strings"
	"testing"

	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
)

// sharedCtx is built once: context construction dominates test time.
var sharedCtx *Context

func getCtx(t *testing.T) *Context {
	t.Helper()
	if sharedCtx == nil {
		sharedCtx = referenceContext(t, 0.15, 11)
	}
	return sharedCtx
}

// referenceContext builds a Context the way geosocial.GenerateStudy and
// the facade do, from the serial references: both cohorts generated from
// one root seed, validated with their POI snap, the primary classified.
func referenceContext(t *testing.T, scale float64, seed uint64) *Context {
	t.Helper()
	root := rng.New(seed)
	primary, err := synth.Generate(synth.PrimaryConfig().Scale(scale), root.Split("primary"))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := synth.Generate(synth.BaselineConfig().Scale(scale), root.Split("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	v := core.NewValidator()
	ctx := &Context{Scale: scale, Seed: seed, Primary: primary, Baseline: baseline}
	if ctx.PrimaryOuts, ctx.PrimaryPart, err = v.ValidateDataset(primary); err != nil {
		t.Fatal(err)
	}
	if ctx.BaselineOuts, ctx.BaselinePart, err = v.ValidateDataset(baseline); err != nil {
		t.Fatal(err)
	}
	if ctx.Cls, err = classify.ClassifyAll(ctx.PrimaryOuts, classify.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestAllExperimentsRunAndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	ctx := getCtx(t)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := Run(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != id {
				t.Errorf("report ID %q, want %q", rep.ID, id)
			}
			var buf bytes.Buffer
			if err := rep.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Error("empty rendering")
			}
			for _, n := range rep.Notes {
				t.Log(n)
			}
			if strings.Contains(buf.String(), "WARNING") {
				t.Errorf("paper shape violated:\n%s", strings.Join(rep.Notes, "\n"))
			}
		})
	}
}

func TestFig1Bands(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	p := ctx.PrimaryPart
	if er := p.ExtraneousRatio(); er < 0.6 || er > 0.88 {
		t.Errorf("extraneous ratio %.3f outside paper band [0.60, 0.88]", er)
	}
	if cov := p.CoverageRatio(); cov < 0.05 || cov > 0.22 {
		t.Errorf("coverage %.3f outside paper band [0.05, 0.22]", cov)
	}
	if mr := p.MissingRatio(); mr < 0.78 || mr > 0.95 {
		t.Errorf("missing ratio %.3f outside paper band [0.78, 0.95]", mr)
	}
}

func TestFig2HonestMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	rep, err := Fig2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's core validation: honest-primary and all-checkin-baseline
	// inter-arrival distributions coincide, while all-checkin-primary
	// deviates. KS distances appear in the notes; recompute them directly
	// off the figure series for a sharper check: at every x, honest
	// primary must be closer to the baseline than all-checkin primary is.
	fig := rep.Figures[0]
	var allP, honP, allB []float64
	for _, s := range fig.Series {
		switch s.Name {
		case "All Checkin, Primary":
			allP = s.Y
		case "Honest, Primary":
			honP = s.Y
		case "All Checkin, Baseline":
			allB = s.Y
		}
	}
	var devHonest, devAll float64
	for i := range allB {
		devHonest += abs(honP[i] - allB[i])
		devAll += abs(allP[i] - allB[i])
	}
	if devHonest >= devAll {
		t.Errorf("honest-primary deviates more from baseline (%.1f) than all-checkin (%.1f)", devHonest, devAll)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFig3Concentration(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	top5 := missingSharesTopN(ctx.PrimaryOuts, 5)
	if got := fracAtLeast(top5, 0.5); got < 0.35 {
		t.Errorf("only %.2f of users have half their missing checkins at top-5 POIs (paper ~0.60)", got)
	}
	top1 := missingSharesTopN(ctx.PrimaryOuts, 1)
	if got := fracAtLeast(top1, 0.4); got < 0.05 {
		t.Errorf("only %.2f of users have 40%% of missing checkins at top-1 POI (paper ~0.20)", got)
	}
}

func TestTable2SignStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	rep, err := Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The note reports sign agreement; demand a solid majority. Small
	// populations make individual weak cells (|r| < 0.1 in the paper)
	// noisy, so 11/16 is the floor.
	var agree int
	if _, err := fmtSscanf(rep.Notes[len(rep.Notes)-1], &agree); err != nil {
		t.Fatalf("cannot parse sign agreement from %q", rep.Notes[len(rep.Notes)-1])
	}
	if agree < 11 {
		t.Errorf("sign agreement %d/16 below 11", agree)
	}
}

// fmtSscanf extracts the leading integer of the "sign agreement with
// paper: N/16 cells" note.
func fmtSscanf(s string, out *int) (int, error) {
	idx := strings.Index(s, ": ")
	if idx < 0 {
		return 0, errParse
	}
	var n int
	_, err := sscan(s[idx+2:], &n)
	if err != nil {
		return 0, err
	}
	*out = n
	return 1, nil
}

var errParse = &parseErr{}

type parseErr struct{}

func (*parseErr) Error() string { return "parse error" }

func sscan(s string, out *int) (int, error) {
	n := 0
	seen := false
	for _, r := range s {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
			seen = true
			continue
		}
		break
	}
	if !seen {
		return 0, errParse
	}
	*out = n
	return 1, nil
}
