// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (see DESIGN.md §4 for the index), plus ablation benches for
// the design choices the reproduction depends on.
//
// The per-experiment benches share one prepared study context (dataset
// generation + validation are the expensive common prefix); each bench
// then measures its own analysis stage and reports the experiment's
// headline quantities as custom metrics, so `go test -bench . -benchmem`
// regenerates every result in one run.
package geosocial_test

import (
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"geosocial"
	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/eval"
	"geosocial/internal/levy"
	"geosocial/internal/manet"
	"geosocial/internal/rng"
	"geosocial/internal/stats"
	"geosocial/internal/synth"
)

// benchScale is the population scale for the shared context: a quarter
// of the paper's 244-user study keeps one full bench pass in minutes
// while preserving every distribution shape. Individual benches that need
// the full population (none do for shape) can build their own context.
const benchScale = 0.25

var (
	benchOnce sync.Once
	benchCtx  *eval.Context
	benchErr  error
)

func ctxForBench(b *testing.B) *eval.Context {
	b.Helper()
	benchOnce.Do(func() {
		var s *geosocial.Study
		if s, benchErr = geosocial.GenerateStudy(geosocial.StudyConfig{Scale: benchScale, Seed: 42}); benchErr == nil {
			benchCtx, benchErr = geosocial.EvalContext(s)
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCtx
}

// runExperiment executes the experiment once per iteration, discarding
// the rendered report.
func runExperiment(b *testing.B, id string) *eval.Report {
	ctx := ctxForBench(b)
	var rep *eval.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Run(ctx, id)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// BenchmarkTable1DatasetStats regenerates Table 1 (dataset statistics).
func BenchmarkTable1DatasetStats(b *testing.B) {
	ctx := ctxForBench(b)
	rep := runExperiment(b, "table1")
	_ = rep
	days := eval.UserDays(ctx.Primary)
	b.ReportMetric(float64(ctx.PrimaryPart.Checkins)/days, "checkins/user-day")
	b.ReportMetric(float64(ctx.PrimaryPart.Visits)/days, "visits/user-day")
}

// BenchmarkFig1Matching regenerates Figure 1 (the matching Venn
// partition) and reports its headline ratios (paper: 0.75 extraneous,
// 0.11 coverage).
func BenchmarkFig1Matching(b *testing.B) {
	ctx := ctxForBench(b)
	runExperiment(b, "fig1")
	b.ReportMetric(ctx.PrimaryPart.ExtraneousRatio(), "extraneous-ratio")
	b.ReportMetric(ctx.PrimaryPart.CoverageRatio(), "visit-coverage")
	b.ReportMetric(ctx.PrimaryPart.MissingRatio(), "missing-ratio")
}

// BenchmarkFig2InterArrival regenerates Figure 2 (inter-arrival CDFs and
// the honest-vs-baseline equivalence).
func BenchmarkFig2InterArrival(b *testing.B) {
	runExperiment(b, "fig2")
}

// BenchmarkFig3TopPOIMissing regenerates Figure 3 (missing checkins at
// top-n POIs).
func BenchmarkFig3TopPOIMissing(b *testing.B) {
	runExperiment(b, "fig3")
}

// BenchmarkFig4MissingByCategory regenerates Figure 4 (missing checkins
// by POI category).
func BenchmarkFig4MissingByCategory(b *testing.B) {
	runExperiment(b, "fig4")
}

// BenchmarkTable2Correlations regenerates Table 2 (checkin-type ratio vs
// profile feature correlations) and reports the two strongest paper
// cells.
func BenchmarkTable2Correlations(b *testing.B) {
	ctx := ctxForBench(b)
	runExperiment(b, "table2")
	fc, err := classify.CorrelateFeatures(ctx.PrimaryOuts, ctx.Cls)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(fc.Rows[classify.Remote][1], "remote-vs-badges-r")
	b.ReportMetric(fc.Rows[classify.Superfluous][2], "superfluous-vs-mayors-r")
	b.ReportMetric(fc.Rows[classify.Honest][3], "honest-vs-ckpd-r")
}

// BenchmarkFig5PerUserPrevalence regenerates Figure 5 (per-user
// extraneous ratio CDFs; paper: ~20 % of users above 0.8).
func BenchmarkFig5PerUserPrevalence(b *testing.B) {
	ctx := ctxForBench(b)
	runExperiment(b, "fig5")
	ratios := classify.PerUserRatios(ctx.Cls, classify.Kind(-1))
	over := 0
	for _, r := range ratios {
		if r >= 0.8 {
			over++
		}
	}
	b.ReportMetric(float64(over)/float64(len(ratios)), "users-over-0.8-extraneous")
}

// BenchmarkFig6Burstiness regenerates Figure 6 (inter-arrival CDFs per
// checkin type; paper: ~35 % of extraneous gaps under a minute).
func BenchmarkFig6Burstiness(b *testing.B) {
	ctx := ctxForBench(b)
	runExperiment(b, "fig6")
	var gaps []float64
	for _, k := range []classify.Kind{classify.Superfluous, classify.Remote, classify.Driveby, classify.Other} {
		gaps = append(gaps, classify.InterArrivals(ctx.PrimaryOuts, ctx.Cls, k)...)
	}
	b.ReportMetric(stats.NewCDF(gaps).Eval(1), "extraneous-gaps-under-1min")
}

// BenchmarkFig7LevyFitting regenerates Figure 7 (mobility model fitting)
// and reports the fitted flight medians whose ordering carries the
// paper's claim (all-checkin < honest < GPS).
func BenchmarkFig7LevyFitting(b *testing.B) {
	ctx := ctxForBench(b)
	runExperiment(b, "fig7")
	models, err := eval.FitModels(ctx.PrimaryOuts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(models.GPS.FlightDist.Alpha, "gps-flight-alpha")
	b.ReportMetric(models.Honest.FlightDist.Alpha, "honest-flight-alpha")
	b.ReportMetric(models.All.FlightDist.Alpha, "all-flight-alpha")
}

// BenchmarkFig8MANET regenerates Figure 8 (the MANET application-impact
// experiment) at the paper's full topology: 200 nodes, 100 CBR flows,
// one simulated hour per mobility model.
func BenchmarkFig8MANET(b *testing.B) {
	ctx := ctxForBench(b)
	b.ResetTimer()
	var results []eval.MANETResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = eval.RunMANET(ctx, eval.FullMANET(), 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, res := range results {
		name := res.Model
		b.ReportMetric(stats.Mean(res.Metrics.Availability), name+"-availability")
		b.ReportMetric(stats.Mean(res.Metrics.RouteChangesPerMin), name+"-changes/min")
		b.ReportMetric(stats.Quantile(res.Metrics.Overhead, 0.5), name+"-overhead-p50")
	}
}

// --- Ablation benches (DESIGN.md §6) ---

// BenchmarkAblationMatchingSweep reruns matching across the (α, β) grid
// of §4.1 — the paper's "most consistent at 500 m / 30 min" claim — and
// reports the honest-count sensitivity around the chosen point.
func BenchmarkAblationMatchingSweep(b *testing.B) {
	ctx := ctxForBench(b)
	alphas := []float64{125, 250, 500, 1000, 2000}
	betas := []time.Duration{
		7500 * time.Millisecond * 60, // 7.5 min
		15 * time.Minute, 30 * time.Minute, 60 * time.Minute, 120 * time.Minute,
	}
	var pts []core.SweepPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = core.SweepParams(ctx.PrimaryOuts, alphas, betas)
		if err != nil {
			b.Fatal(err)
		}
	}
	get := func(a float64, bta time.Duration) float64 {
		for _, p := range pts {
			if p.Alpha == a && p.Beta == bta {
				return float64(p.Honest)
			}
		}
		return 0
	}
	center := get(500, 30*time.Minute)
	if center > 0 {
		// Relative growth when doubling each threshold from the paper's
		// point: small values mean the match set has stabilized.
		b.ReportMetric(get(1000, 30*time.Minute)/center-1, "honest-gain-alpha-x2")
		b.ReportMetric(get(500, 60*time.Minute)/center-1, "honest-gain-beta-x2")
		b.ReportMetric(get(250, 30*time.Minute)/center-1, "honest-loss-alpha-half")
	}
}

// BenchmarkAblationExpandingRing compares AODV route discovery with the
// expanding-ring search against full-diameter flooding on the same
// honest-checkin mobility.
func BenchmarkAblationExpandingRing(b *testing.B) {
	ctx := ctxForBench(b)
	models, err := eval.FitModels(ctx.PrimaryOuts)
	if err != nil {
		b.Fatal(err)
	}
	gen := levy.DefaultGenOptions()
	gen.Duration = 600
	gen.SpawnKm = 6.2 // ~5 neighbors at 60 nodes
	wps, err := models.Honest.Generate(60, gen, rng.New(9))
	if err != nil {
		b.Fatal(err)
	}
	run := func(fullFlood bool) *manet.Metrics {
		cfg := manet.DefaultConfig()
		cfg.Nodes = 60
		cfg.Flows = 25
		cfg.Duration = 600
		cfg.FullFloodRREQ = fullFlood
		sm, err := manet.NewSimulator(cfg, &manet.WaypointMobility{Schedules: wps}, rng.New(10))
		if err != nil {
			b.Fatal(err)
		}
		m, err := sm.Run()
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	var ring, flood *manet.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring = run(false)
		flood = run(true)
	}
	b.ReportMetric(float64(ring.ControlPackets), "ring-control-pkts")
	b.ReportMetric(float64(flood.ControlPackets), "flood-control-pkts")
	b.ReportMetric(ring.DeliveryRatio, "ring-delivery")
	b.ReportMetric(flood.DeliveryRatio, "flood-delivery")
}

// BenchmarkAblationHello compares link-layer break detection (ns-2
// default) against periodic hello beacons.
func BenchmarkAblationHello(b *testing.B) {
	ctx := ctxForBench(b)
	models, err := eval.FitModels(ctx.PrimaryOuts)
	if err != nil {
		b.Fatal(err)
	}
	gen := levy.DefaultGenOptions()
	gen.Duration = 600
	gen.SpawnKm = 6.2
	wps, err := models.GPS.Generate(60, gen, rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	run := func(hello bool) *manet.Metrics {
		cfg := manet.DefaultConfig()
		cfg.Nodes = 60
		cfg.Flows = 25
		cfg.Duration = 600
		cfg.Hello = hello
		sm, err := manet.NewSimulator(cfg, &manet.WaypointMobility{Schedules: wps}, rng.New(12))
		if err != nil {
			b.Fatal(err)
		}
		m, err := sm.Run()
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	var off, on *manet.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off = run(false)
		on = run(true)
	}
	b.ReportMetric(float64(off.ControlPackets), "linklayer-control-pkts")
	b.ReportMetric(float64(on.ControlPackets), "hello-control-pkts")
	b.ReportMetric(off.DeliveryRatio, "linklayer-delivery")
	b.ReportMetric(on.DeliveryRatio, "hello-delivery")
}

// BenchmarkAblationBurstDetector sweeps the §7 burstiness detector's gap
// threshold and reports the best F1.
func BenchmarkAblationBurstDetector(b *testing.B) {
	ctx := ctxForBench(b)
	gaps := []time.Duration{
		30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute,
		10 * time.Minute, 20 * time.Minute,
	}
	bestF1 := 0.0
	var bestGap time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bestF1 = 0
		for _, g := range gaps {
			sc := classify.EvaluateBurstDetector(ctx.PrimaryOuts, ctx.Cls, classify.BurstDetector{MaxGap: g})
			if f1 := sc.F1(); f1 > bestF1 {
				bestF1 = f1
				bestGap = g
			}
		}
	}
	b.ReportMetric(bestF1, "best-f1")
	b.ReportMetric(bestGap.Minutes(), "best-gap-min")
}

// benchGenerate measures raw dataset generation throughput with the given
// worker count (0 = all cores, 1 = exact serial path).
func benchGenerate(b *testing.B, workers int) {
	cfg := synth.PrimaryConfig().Scale(0.1)
	cfg.Parallelism = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := synth.Generate(cfg, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Users) == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkGenerate measures generation at the default worker count.
func BenchmarkGenerate(b *testing.B) { benchGenerate(b, 0) }

// BenchmarkGenerateSerial pins generation to the legacy single-core path;
// the ratio against BenchmarkGenerateParallel is the fan-out speedup.
func BenchmarkGenerateSerial(b *testing.B) { benchGenerate(b, 1) }

// BenchmarkGenerateParallel runs generation on all cores.
func BenchmarkGenerateParallel(b *testing.B) { benchGenerate(b, runtime.GOMAXPROCS(0)) }

// benchValidate measures the in-memory pipeline (visit detection with
// the POI snap, matching and classification on the engine) over the
// shared context's primary dataset with the given worker count.
func benchValidate(b *testing.B, workers int) {
	ctx := ctxForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := geosocial.ValidateDatasetWorkers(ctx.Primary, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidatePipeline measures validation at the default worker
// count.
func BenchmarkValidatePipeline(b *testing.B) { benchValidate(b, 0) }

// BenchmarkValidatePipelineSerial pins validation to the legacy
// single-core path; the ratio against BenchmarkValidatePipelineParallel is
// the fan-out speedup (≥ 2× expected on ≥ 4 cores).
func BenchmarkValidatePipelineSerial(b *testing.B) { benchValidate(b, 1) }

// BenchmarkValidatePipelineParallel runs validation on all cores.
func BenchmarkValidatePipelineParallel(b *testing.B) { benchValidate(b, runtime.GOMAXPROCS(0)) }

// benchValidateStream measures the facade's streaming engine over the
// users benchValidate processes in memory, saved as one binary file;
// the delta against BenchmarkValidatePipeline* is the cost of decode
// less the cost of the POI snap.
func benchValidateStream(b *testing.B, workers int) {
	ctx := ctxForBench(b)
	path := filepath.Join(b.TempDir(), "primary.bin")
	if err := ctx.Primary.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	opts := geosocial.StreamOptions{Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := geosocial.ValidateFileOpts(path, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateStreamSerial pins streaming validation to one worker.
func BenchmarkValidateStreamSerial(b *testing.B) { benchValidateStream(b, 1) }

// BenchmarkValidateStreamParallel runs streaming validation on all cores.
func BenchmarkValidateStreamParallel(b *testing.B) { benchValidateStream(b, runtime.GOMAXPROCS(0)) }
