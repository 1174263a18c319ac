package geosocial_test

// Acceptance tests for the columnar outcome sink: log bytes are
// identical for any worker count and any shard split; every log-backed
// analysis is exactly equal to the in-memory analysis of the same
// users; and validation + analysis runs bounded-memory — no
// []core.UserOutcome is ever materialized.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"geosocial"
	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/detect"
	"geosocial/internal/eval"
	"geosocial/internal/geo"
	"geosocial/internal/outcome"
	"geosocial/internal/poi"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

// saveOutcomeCorpus writes one dataset as a single binary file, a JSON
// file of the same on-grid users, and 3- and 8-shard corpora.
func saveOutcomeCorpus(t *testing.T) (binPath, jsonPath string, manifests []string) {
	t.Helper()
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(0.05), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	binPath = filepath.Join(dir, "primary.bin.gz")
	if err := ds.SaveFile(binPath); err != nil {
		t.Fatal(err)
	}
	// The JSON twin holds the E7-quantized users, so all four inputs
	// carry bit-identical data.
	onGrid, err := trace.LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	jsonPath = filepath.Join(dir, "primary.json.gz")
	if err := onGrid.SaveFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{3, 8} {
		m, err := ds.SaveShards(t.TempDir(), trace.ShardOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		manifests = append(manifests, m)
	}
	return binPath, jsonPath, manifests
}

// logFor validates input with an outcome sink and returns the log bytes.
func logFor(t *testing.T, input string, workers int) []byte {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), "out.gso")
	if _, err := geosocial.ValidateFileOpts(input, geosocial.StreamOptions{
		Workers:    workers,
		OutcomeLog: logPath,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOutcomeLogByteIdentical pins the log's determinism contract:
// identical bytes for workers {1, 8} × {single file, JSON twin, 3
// shards, 8 shards} of the same dataset.
func TestOutcomeLogByteIdentical(t *testing.T) {
	binPath, jsonPath, manifests := saveOutcomeCorpus(t)
	ref := logFor(t, binPath, 1)
	if len(ref) == 0 {
		t.Fatal("empty reference log")
	}
	inputs := map[string]string{
		"file":    binPath,
		"json":    jsonPath,
		"shards3": manifests[0],
		"shards8": manifests[1],
	}
	for name, input := range inputs {
		for _, workers := range []int{1, 8} {
			got := logFor(t, input, workers)
			if !bytes.Equal(got, ref) {
				t.Errorf("%s workers=%d: outcome log differs from reference (%d vs %d bytes)",
					name, workers, len(got), len(ref))
			}
		}
	}
}

// inMemoryOutcomes validates the on-grid dataset in memory — the path
// every log-backed analysis must match exactly.
func inMemoryOutcomes(t *testing.T, binPath string) ([]core.UserOutcome, []*classify.Classification) {
	t.Helper()
	onGrid, err := trace.LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := geosocial.ValidateDataset(onGrid)
	if err != nil {
		t.Fatal(err)
	}
	return res.Outcomes, res.Classifications
}

// TestLogBackedAnalysesExactlyEqualInMemory is the tentpole's equality
// contract: correlations, inter-arrivals, filtering trade-off, burst
// and learned detector scores, Levy fits and truth scores computed from
// the log equal the in-memory results bit for bit.
func TestLogBackedAnalysesExactlyEqualInMemory(t *testing.T) {
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(0.06), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	binPath := filepath.Join(dir, "primary.bin.gz")
	if err := ds.SaveFile(binPath); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "out.gso")
	if _, err := geosocial.ValidateFileOpts(binPath, geosocial.StreamOptions{OutcomeLog: logPath}); err != nil {
		t.Fatal(err)
	}
	outs, cls := inMemoryOutcomes(t, binPath)

	t.Run("correlations", func(t *testing.T) {
		want, err := classify.CorrelateFeatures(outs, cls)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := outcome.Correlations(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("log-backed correlations differ:\n got %+v\nwant %+v", got, want)
		}
		// And through the facade report.
		a, err := geosocial.AnalyzeOutcomes(logPath, geosocial.AnalysisCorrelations)
		if err != nil {
			t.Fatal(err)
		}
		for k, row := range want.Rows {
			if a.Correlations.Rows[k.String()] != row {
				t.Fatalf("facade correlations row %v = %v, want %v", k, a.Correlations.Rows[k.String()], row)
			}
		}
	})

	t.Run("interarrivals", func(t *testing.T) {
		for _, k := range []classify.Kind{classify.Kind(-1), classify.Honest, classify.Superfluous} {
			want := classify.InterArrivals(outs, cls, k)
			got, _, err := outcome.InterArrivals(logPath, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kind %v: log-backed inter-arrivals differ (%d vs %d gaps)", k, len(got), len(want))
			}
		}
	})

	t.Run("tradeoff", func(t *testing.T) {
		want := classify.ComputeFilterTradeoff(cls)
		got, _, err := outcome.FilterTradeoff(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("log-backed filter trade-off differs")
		}
	})

	t.Run("burst", func(t *testing.T) {
		d := classify.BurstDetector{MaxGap: 2 * time.Minute}
		want := classify.EvaluateBurstDetector(outs, cls, d)
		_, got, _, err := outcome.Detector(logPath, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("log-backed burst score %+v != %+v", got, want)
		}
	})

	t.Run("detector", func(t *testing.T) {
		wantEx := detect.ExtractAll(outs)
		gotEx, _, _, err := outcome.Detector(logPath, classify.BurstDetector{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotEx, wantEx) {
			t.Fatalf("log-backed examples differ (%d vs %d)", len(gotEx), len(wantEx))
		}
		want, err := detect.CrossValidate(wantEx, 5, detect.DefaultTrainConfig(), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		a, err := geosocial.AnalyzeOutcomes(logPath, geosocial.AnalysisDetector)
		if err != nil {
			t.Fatal(err)
		}
		d := a.Detector
		if d.TP != want.TP || d.FP != want.FP || d.TN != want.TN || d.FN != want.FN {
			t.Fatalf("log-backed detector score (%d/%d/%d/%d) != in-memory (%d/%d/%d/%d)",
				d.TP, d.FP, d.TN, d.FN, want.TP, want.FP, want.TN, want.FN)
		}
	})

	t.Run("levy", func(t *testing.T) {
		want, err := eval.FitModels(outs)
		if err != nil {
			t.Fatal(err)
		}
		gpsSm, honestSm, allSm, _, err := outcome.Samples(logPath)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eval.FitModelsFromSamples(gpsSm, honestSm, allSm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("log-backed Levy models differ:\n got %+v %+v %+v\nwant %+v %+v %+v",
				got.GPS, got.Honest, got.All, want.GPS, want.Honest, want.All)
		}
		// Facade report carries the same parameters.
		a, err := geosocial.AnalyzeOutcomes(logPath, geosocial.AnalysisLevy)
		if err != nil {
			t.Fatal(err)
		}
		if a.Levy.GPS.FlightAlpha != want.GPS.FlightDist.Alpha ||
			a.Levy.Honest.FlightAlpha != want.Honest.FlightDist.Alpha ||
			a.Levy.All.FlightAlpha != want.All.FlightDist.Alpha {
			t.Fatalf("facade Levy alphas %+v differ from models", a.Levy)
		}
	})

	t.Run("truth", func(t *testing.T) {
		want, err := core.ScoreAgainstTruth(outs)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := outcome.Summarize(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if sm.Truth == nil || *sm.Truth != want {
			t.Fatalf("log-backed truth score %+v != %+v", sm.Truth, want)
		}
	})
}

// tinyUserSource generates small synthetic users on demand — a
// multi-thousand-user "dataset" that never exists in memory at once.
type tinyUserSource struct {
	next, n int
	pois    []poi.POI
}

func (g *tinyUserSource) Next() (*trace.User, error) {
	if g.next >= g.n {
		return nil, io.EOF
	}
	i := g.next
	g.next++
	t0 := int64(1_400_000_000) + int64(i%97)*3600
	u := &trace.User{
		ID:   i,
		Days: 1,
		Profile: trace.Profile{
			Friends: 10 + i%53, Badges: i % 11, Mayors: i % 5,
			CheckinsPerDay: float64(2 + i%7),
		},
	}
	// A 20-minute stay at POI 0: one detected visit.
	for m := 0; m < 20; m++ {
		u.GPS = append(u.GPS, trace.GPSPoint{T: t0 + int64(m)*60, Loc: g.pois[0].Loc})
	}
	// One checkin during the stay (matches), one claiming the far POI
	// (extraneous). Users vary in honest count so per-user ratios carry
	// variance.
	u.Checkins = append(u.Checkins, trace.Checkin{
		T: t0 + 300, POIID: 0, POIName: g.pois[0].Name, Category: g.pois[0].Category, Loc: g.pois[0].Loc,
	})
	if i%2 == 0 {
		u.Checkins = append(u.Checkins, trace.Checkin{
			T: t0 + 600, POIID: 0, POIName: g.pois[0].Name, Category: g.pois[0].Category, Loc: g.pois[0].Loc,
		})
	}
	u.Checkins = append(u.Checkins, trace.Checkin{
		T: t0 + 1300, POIID: 1, POIName: g.pois[1].Name, Category: g.pois[1].Category, Loc: g.pois[1].Loc,
	})
	return u, nil
}

// TestOutcomeSinkBoundedMemory validates and analyzes a 3000-user
// stream without ever materializing a []core.UserOutcome: users are
// generated on demand and streamed to a binary file one at a time,
// consumed by the engine's bounded window, distilled into log records,
// and the analyses run over the log afterwards.
func TestOutcomeSinkBoundedMemory(t *testing.T) {
	base := geo.LatLon{Lat: 34.4208, Lon: -119.6982}
	pois := []poi.POI{
		{ID: 0, Name: "Cafe", Category: poi.Food, Loc: base, Popularity: 1},
		{ID: 1, Name: "Far", Category: poi.Shop, Loc: geo.Destination(base, 90, 5000), Popularity: 1},
	}
	const users = 3000
	src := &tinyUserSource{n: users, pois: pois}
	dir := t.TempDir()
	binPath := filepath.Join(dir, "big.bin")
	f, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := trace.NewStreamWriter(f, "big", pois)
	if err != nil {
		t.Fatal(err)
	}
	for {
		u, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		logPath := filepath.Join(dir, fmt.Sprintf("big-w%d.gso", workers))
		res, err := geosocial.ValidateFileOpts(binPath, geosocial.StreamOptions{Workers: workers, OutcomeLog: logPath})
		if err != nil {
			t.Fatal(err)
		}
		checkBigLog(t, logPath, res.Partition, users)
	}
}

// checkBigLog runs the log-backed analyses over the bounded-memory
// run's log.
func checkBigLog(t *testing.T, logPath string, part core.Partition, users int) {
	t.Helper()
	sm, err := outcome.Summarize(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Users != users {
		t.Fatalf("log holds %d users, want %d", sm.Users, users)
	}
	if sm.Partition != part {
		t.Fatalf("log partition %+v != result partition %+v", sm.Partition, part)
	}
	if sm.Partition.Honest == 0 || sm.Partition.Extraneous == 0 {
		t.Fatalf("degenerate partition: %+v", sm.Partition)
	}

	ft, _, err := outcome.FilterTradeoff(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.UsersDropped) != users {
		t.Fatalf("trade-off curve has %d points, want %d", len(ft.UsersDropped), users)
	}
	gaps, _, err := outcome.InterArrivals(logPath, classify.Kind(-1))
	if err != nil {
		t.Fatal(err)
	}
	// Every user contributes nCheckins-1 gaps.
	if want := sm.Checkins - users; len(gaps) != want {
		t.Fatalf("pooled inter-arrivals = %d gaps, want %d", len(gaps), want)
	}
}
