package outcome

// Log-backed analysis drivers: each function makes one streaming pass
// over an outcome log and feeds the analysis layer's accumulator (or
// assembles the bounded sample the math needs), producing results
// exactly equal — to the last float bit — to the in-memory path over
// the same users in the same (canonical) order. Every driver also
// reports the pass's ScanStats, so callers (the facade's
// AnalyzeOutcomes, cmd/geoanalyze via it) get the log's user and
// checkin counts without a second pass — these functions are the one
// implementation of each log-backed analysis.

import (
	"io"

	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/detect"
	"geosocial/internal/levy"
)

// ScanStats describes one streaming pass over a log.
type ScanStats struct {
	// Name is the dataset name from the log header.
	Name string
	// Users and Checkins count the records and checkins scanned.
	Users, Checkins int
}

// Summary aggregates what a whole-log pass reveals: the same
// dataset-level quantities streaming validation reports, recomputed
// from the log alone — a cheap self-check that a log is faithful to
// the validation that produced it.
type Summary struct {
	// Name is the dataset name from the log header.
	Name string `json:"name"`
	// Users is the number of records.
	Users int `json:"users"`
	// Checkins is the total checkin count.
	Checkins int `json:"checkins"`
	// Partition is the Figure 1 split reassembled from the records.
	Partition core.Partition `json:"partition"`
	// Taxonomy holds the §5.1 per-kind checkin counts.
	Taxonomy map[string]int `json:"taxonomy"`
	// Truth scores the matcher against ground-truth labels; nil when
	// the log carries none (real data).
	Truth *core.TruthScore `json:"truth,omitempty"`
}

// Summarize rebuilds the dataset-level aggregates from a log.
func Summarize(path string) (*Summary, error) {
	sm := &Summary{Taxonomy: make(map[string]int, classify.NumKinds)}
	var truth core.TruthAccum
	st, err := scan(path, func(rec *Record) error {
		rec.AddTo(&sm.Partition)
		for _, k := range rec.Kinds {
			sm.Taxonomy[k.String()]++
		}
		rec.AddTruth(&truth)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sm.Name, sm.Users, sm.Checkins = st.Name, st.Users, st.Checkins
	if truth.Labeled() > 0 {
		sc, err := truth.Score()
		if err != nil {
			return nil, err
		}
		sm.Truth = &sc
	}
	return sm, nil
}

// Correlations computes the Table 2 feature-correlation matrix from a
// log in one pass (classify.CorrAccum holds four floats and four
// ratios per user — the bounded reservoir Pearson requires).
func Correlations(path string) (*classify.FeatureCorrelations, ScanStats, error) {
	var a classify.CorrAccum
	st, err := scan(path, func(rec *Record) error {
		a.Add(rec.Profile, rec.Counts())
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	fc, err := a.Correlations()
	return fc, st, err
}

// InterArrivals pools the Figure 6 inter-arrival gaps (minutes) of the
// given kind from a log; classify.Kind(-1) pools all checkins.
func InterArrivals(path string, k classify.Kind) ([]float64, ScanStats, error) {
	var gaps []float64
	st, err := scan(path, func(rec *Record) error {
		gaps = classify.AppendInterArrivals(gaps, rec.Times, rec.Kinds, k)
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	return gaps, st, nil
}

// FilterTradeoff builds the §5.3 user-filtering trade-off curve from a
// log in one pass (three numbers per user).
func FilterTradeoff(path string) (classify.FilterTradeoff, ScanStats, error) {
	var a classify.TradeoffAccum
	st, err := scan(path, func(rec *Record) error {
		a.Add(rec.Counts())
		return nil
	})
	if err != nil {
		return classify.FilterTradeoff{}, st, err
	}
	return a.Tradeoff(), st, nil
}

// Detector reassembles the §7 detector training set and scores the
// §5.3 burstiness baseline in a single pass. The examples are
// bit-identical to detect.ExtractAll over the same users in canonical
// order (the vectors were computed from the live outcomes and stored);
// only the compact vectors are held, never the traces.
func Detector(path string, d classify.BurstDetector) ([]detect.Example, classify.DetectorScore, ScanStats, error) {
	var all []detect.Example
	var burst classify.DetectorScore
	st, err := scan(path, func(rec *Record) error {
		all = append(all, rec.Examples()...)
		d.ScoreUser(&burst, rec.Times, rec.Kinds)
		return nil
	})
	if err != nil {
		return nil, classify.DetectorScore{}, st, err
	}
	return all, burst, st, nil
}

// Samples reassembles the three §6.1 Levy fitting samples from a log,
// merged in canonical user order — exactly the samples
// eval.FitModelsFromSamples and eval.Fig7FromSamples expect.
func Samples(path string) (gpsSm, honestSm, allSm levy.Sample, st ScanStats, err error) {
	st, err = scan(path, func(rec *Record) error {
		rec.AddSamples(&gpsSm, &honestSm, &allSm)
		return nil
	})
	if err != nil {
		return levy.Sample{}, levy.Sample{}, levy.Sample{}, st, err
	}
	return gpsSm, honestSm, allSm, st, nil
}

// scan streams a log through fn, counting users and checkins.
func scan(path string, fn func(*Record) error) (ScanStats, error) {
	var st ScanStats
	lf, err := Open(path)
	if err != nil {
		return st, err
	}
	defer lf.Close()
	st.Name = lf.Name()
	err = each(lf, func(rec *Record) error {
		st.Users++
		st.Checkins += rec.Checkins()
		return fn(rec)
	})
	return st, err
}

// each iterates an already-open log (the loop body shared by scan and
// Scan).
func each(lf *LogFile, fn func(*Record) error) error {
	for {
		rec, err := lf.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}
