package geosocial

// Log-backed analysis entry points: the §5–§7 analyses (feature
// correlations, extraneous-checkin detectors, filtering trade-off,
// Levy mobility fits) over a GSO1 outcome log written by validation
// (StreamOptions.OutcomeLog / geovalidate -outcomes), instead of
// in-memory []core.UserOutcome. Every analysis streams the log one
// record at a time; what it retains depends on the math — a few
// numbers per user for summary, correlations and the trade-off, and
// the full compact sample for the detector (feature vectors) and the
// Levy fits (flights), which grows with the dataset but is orders of
// magnitude below the traces the in-memory path would hold. Results
// are exactly equal to the in-memory path over the same users: the
// log stores exact float bits in canonical user order, and both paths
// share one accumulator implementation per analysis.

import (
	"fmt"
	"math"
	"strings"
	"time"

	"geosocial/internal/classify"
	"geosocial/internal/detect"
	"geosocial/internal/eval"
	"geosocial/internal/levy"
	"geosocial/internal/outcome"
)

// Analysis kinds accepted by AnalyzeOutcomes (and served by geoserve's
// /v1/datasets/{id}/analysis/{kind} endpoint).
const (
	AnalysisSummary      = "summary"      // partition, taxonomy, truth score
	AnalysisCorrelations = "correlations" // Table 2 feature correlations
	AnalysisDetector     = "detector"     // §7 learned + §5.3 burst detectors
	AnalysisLevy         = "levy"         // §6.1 Levy-walk model fits
	AnalysisTradeoff     = "tradeoff"     // §5.3 user-filtering trade-off
)

// AnalysisKinds returns the supported analysis kinds in presentation
// order.
func AnalysisKinds() []string {
	return []string{AnalysisSummary, AnalysisCorrelations, AnalysisDetector, AnalysisLevy, AnalysisTradeoff}
}

// AnalyzeOptions tunes AnalyzeOutcomesOpts. The zero value selects the
// defaults used throughout the repository.
type AnalyzeOptions struct {
	// Folds is the detector cross-validation fold count (default 5).
	Folds int
	// Threshold is the detector decision threshold. Non-positive values
	// (including the zero value) select the default 0.5 — callers that
	// mean "flag everything" should pass a small positive epsilon
	// (scores are strictly inside (0, 1)).
	Threshold float64
	// BurstGap is the burstiness detector's gap threshold (default 2m).
	BurstGap time.Duration
}

// tradeoffTargets are the extraneous-removal fractions the trade-off
// analysis reports as headline points.
var tradeoffTargets = [...]float64{0.5, 0.8, 0.95}

// curvePoints caps the trade-off curve samples included in the report
// (the underlying curve has one point per user).
const curvePoints = 200

func (o AnalyzeOptions) withDefaults() AnalyzeOptions {
	if o.Folds <= 0 {
		o.Folds = 5
	}
	if o.Threshold <= 0 {
		o.Threshold = 0.5
	}
	if o.BurstGap <= 0 {
		o.BurstGap = 2 * time.Minute
	}
	return o
}

// OutcomeSummary is the dataset-level aggregate reassembled from a log.
type OutcomeSummary = outcome.Summary

// OutcomeAnalysis is one analysis over an outcome log — the JSON
// document cmd/geoanalyze -json emits and geoserve's analysis endpoint
// serves. Exactly one of the kind-specific fields is populated.
type OutcomeAnalysis struct {
	// Kind is the analysis that ran.
	Kind string `json:"kind"`
	// Dataset is the dataset name from the log header.
	Dataset string `json:"dataset"`
	// Users and Checkins count the log's records and checkins.
	Users    int `json:"users"`
	Checkins int `json:"checkins"`

	Summary      *OutcomeSummary     `json:"summary,omitempty"`
	Correlations *CorrelationsReport `json:"correlations,omitempty"`
	Detector     *DetectorReport     `json:"detector,omitempty"`
	Levy         *LevyReport         `json:"levy,omitempty"`
	Tradeoff     *TradeoffReport     `json:"tradeoff,omitempty"`
}

// CorrelationsReport is the Table 2 matrix keyed by kind name.
type CorrelationsReport struct {
	// Users is the number of users contributing (those with checkins).
	Users int `json:"users"`
	// Features are the column headers, index-aligned with each row.
	Features []string `json:"features"`
	// Rows maps a checkin kind to its four Pearson correlations.
	Rows map[string][4]float64 `json:"rows"`
}

// DetectorReport evaluates the §7 learned detector (user-grouped
// cross-validation) and the §5.3 burstiness baseline.
type DetectorReport struct {
	Examples  int     `json:"examples"`
	Folds     int     `json:"folds"`
	Threshold float64 `json:"threshold"`
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	TN        int     `json:"tn"`
	FN        int     `json:"fn"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	Accuracy  float64 `json:"accuracy"`
	// Burst is the no-training burstiness baseline at BurstGap.
	Burst BurstReport `json:"burst"`
}

// BurstReport scores the burstiness detector at one gap threshold.
type BurstReport struct {
	GapSeconds float64 `json:"gap_seconds"`
	Precision  float64 `json:"precision"`
	Recall     float64 `json:"recall"`
	F1         float64 `json:"f1"`
}

// LevyModelReport is one fitted §6.1 model's parameters.
type LevyModelReport struct {
	// Flights is the sample size the flight fit used.
	Flights     int     `json:"flights"`
	FlightXmKm  float64 `json:"flight_xm_km"`
	FlightAlpha float64 `json:"flight_alpha"`
	FlightMaxKm float64 `json:"flight_max_km"`
	MoveTimeK   float64 `json:"move_time_k"`
	MoveTimeExp float64 `json:"move_time_exp"`
	MoveTimeR2  float64 `json:"move_time_r2"`
	PauseXmMin  float64 `json:"pause_xm_min,omitempty"`
	PauseAlpha  float64 `json:"pause_alpha,omitempty"`
}

// LevyReport bundles the three fitted mobility models.
type LevyReport struct {
	GPS    LevyModelReport `json:"gps"`
	Honest LevyModelReport `json:"honest_checkin"`
	All    LevyModelReport `json:"all_checkin"`
}

// TradeoffPoint is one sample of the §5.3 filtering curve.
type TradeoffPoint struct {
	UsersDropped      int     `json:"users_dropped"`
	ExtraneousRemoved float64 `json:"extraneous_removed"`
	HonestLost        float64 `json:"honest_lost"`
}

// TradeoffTarget is the cost of reaching one extraneous-removal target.
type TradeoffTarget struct {
	TargetExtraneous float64 `json:"target_extraneous"`
	UsersDropped     int     `json:"users_dropped"`
	HonestLost       float64 `json:"honest_lost"`
}

// TradeoffReport is the §5.3 user-filtering trade-off.
type TradeoffReport struct {
	// CurveUsers is the underlying curve length (users with checkins).
	CurveUsers int `json:"curve_users"`
	// Curve is the trade-off curve, decimated to at most 200
	// samples (the last point is always included).
	Curve []TradeoffPoint `json:"curve"`
	// Targets are the headline points the paper quotes.
	Targets []TradeoffTarget `json:"targets"`
}

// AnalyzeOutcomes runs one analysis kind over an outcome log with the
// default options; see AnalysisKinds for the kinds.
func AnalyzeOutcomes(path, kind string) (*OutcomeAnalysis, error) {
	return AnalyzeOutcomesOpts(path, kind, AnalyzeOptions{})
}

// AnalyzeOutcomesOpts is AnalyzeOutcomes with explicit options. The log
// is streamed in a single pass per call; the per-user outcomes behind
// it are never rebuilt.
func AnalyzeOutcomesOpts(path, kind string, opts AnalyzeOptions) (*OutcomeAnalysis, error) {
	opts = opts.withDefaults()
	a := &OutcomeAnalysis{Kind: kind}
	var err error
	switch kind {
	case AnalysisSummary:
		err = a.runSummary(path)
	case AnalysisCorrelations:
		err = a.runCorrelations(path)
	case AnalysisDetector:
		err = a.runDetector(path, opts)
	case AnalysisLevy:
		err = a.runLevy(path)
	case AnalysisTradeoff:
		err = a.runTradeoff(path)
	default:
		return nil, fmt.Errorf("geosocial: unknown analysis kind %q (have %s)",
			kind, strings.Join(AnalysisKinds(), ", "))
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// setStats fills the analysis's shared header fields from one scan.
func (a *OutcomeAnalysis) setStats(st outcome.ScanStats) {
	a.Dataset, a.Users, a.Checkins = st.Name, st.Users, st.Checkins
}

func (a *OutcomeAnalysis) runSummary(path string) error {
	sm, err := outcome.Summarize(path)
	if err != nil {
		return fmt.Errorf("geosocial: %w", err)
	}
	a.Dataset, a.Users, a.Checkins = sm.Name, sm.Users, sm.Checkins
	a.Summary = sm
	return nil
}

func (a *OutcomeAnalysis) runCorrelations(path string) error {
	fc, st, err := outcome.Correlations(path)
	if err != nil {
		return fmt.Errorf("geosocial: %w", err)
	}
	a.setStats(st)
	rep := &CorrelationsReport{
		Users:    fc.Users,
		Features: classify.FeatureNames(),
		Rows:     make(map[string][4]float64, len(fc.Rows)),
	}
	for k, row := range fc.Rows {
		rep.Rows[k.String()] = row
	}
	a.Correlations = rep
	return nil
}

func (a *OutcomeAnalysis) runDetector(path string, opts AnalyzeOptions) error {
	examples, burst, st, err := outcome.Detector(path, classify.BurstDetector{MaxGap: opts.BurstGap})
	if err != nil {
		return fmt.Errorf("geosocial: %w", err)
	}
	a.setStats(st)
	score, err := detect.CrossValidate(examples, opts.Folds, detect.DefaultTrainConfig(), opts.Threshold)
	if err != nil {
		return fmt.Errorf("geosocial: %w", err)
	}
	a.Detector = &DetectorReport{
		Examples:  len(examples),
		Folds:     opts.Folds,
		Threshold: opts.Threshold,
		TP:        score.TP, FP: score.FP, TN: score.TN, FN: score.FN,
		Precision: score.Precision(),
		Recall:    score.Recall(),
		F1:        score.F1(),
		Accuracy:  score.Accuracy(),
		Burst: BurstReport{
			GapSeconds: opts.BurstGap.Seconds(),
			Precision:  burst.Precision(),
			Recall:     burst.Recall(),
			F1:         burst.F1(),
		},
	}
	return nil
}

func (a *OutcomeAnalysis) runLevy(path string) error {
	gpsSm, honestSm, allSm, st, err := outcome.Samples(path)
	if err != nil {
		return fmt.Errorf("geosocial: %w", err)
	}
	a.setStats(st)
	models, err := eval.FitModelsFromSamples(gpsSm, honestSm, allSm)
	if err != nil {
		return fmt.Errorf("geosocial: %w", err)
	}
	a.Levy = &LevyReport{
		GPS:    levyModelReport(models.GPS),
		Honest: levyModelReport(models.Honest),
		All:    levyModelReport(models.All),
	}
	return nil
}

func levyModelReport(m *levy.Model) LevyModelReport {
	return LevyModelReport{
		Flights:     m.FlightDist.N,
		FlightXmKm:  m.FlightDist.Xm,
		FlightAlpha: m.FlightDist.Alpha,
		FlightMaxKm: m.FlightMax,
		MoveTimeK:   m.MoveTime.K,
		MoveTimeExp: m.MoveTime.Exp,
		MoveTimeR2:  m.MoveTime.R2,
		PauseXmMin:  m.Pause.Xm,
		PauseAlpha:  m.Pause.Alpha,
	}
}

func (a *OutcomeAnalysis) runTradeoff(path string) error {
	ft, st, err := outcome.FilterTradeoff(path)
	if err != nil {
		return fmt.Errorf("geosocial: %w", err)
	}
	a.setStats(st)
	n := len(ft.UsersDropped)
	rep := &TradeoffReport{CurveUsers: n}
	step := 1
	if n > curvePoints {
		step = int(math.Ceil(float64(n) / float64(curvePoints)))
	}
	for i := 0; i < n; i += step {
		rep.Curve = append(rep.Curve, TradeoffPoint{
			UsersDropped:      ft.UsersDropped[i],
			ExtraneousRemoved: ft.ExtraneousRemoved[i],
			HonestLost:        ft.HonestLost[i],
		})
	}
	if n > 0 && (n-1)%step != 0 {
		rep.Curve = append(rep.Curve, TradeoffPoint{
			UsersDropped:      ft.UsersDropped[n-1],
			ExtraneousRemoved: ft.ExtraneousRemoved[n-1],
			HonestLost:        ft.HonestLost[n-1],
		})
	}
	for _, target := range tradeoffTargets {
		dropped, lost := ft.HonestLossAt(target)
		rep.Targets = append(rep.Targets, TradeoffTarget{
			TargetExtraneous: target,
			UsersDropped:     dropped,
			HonestLost:       lost,
		})
	}
	a.Tradeoff = rep
	return nil
}
