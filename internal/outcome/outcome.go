// Package outcome implements the GSO1 columnar outcome log: a compact,
// versioned on-disk record of everything the §5–§7 analyses need about a
// validated user — and nothing they don't. Streaming validation (the
// facade's engine) discards per-user outcomes after aggregating them,
// which keeps memory bounded but leaves nothing for the analysis layer
// to run on. A Writer fed by the engine captures a per-user Record
// while the outcome is still alive; the analyses then
// run over the log in a single streaming pass, retaining only what
// their math requires — O(users) aggregates for correlations and the
// filtering trade-off, the compact full sample (feature vectors,
// flights) for the detector and Levy fits — so feature correlations
// (Table 2), the extraneous-checkin detectors (§5.3, §7) and the Levy
// flight fits (§6.1) run on datasets whose traces never fit in RAM.
//
// A Record deliberately stores analysis inputs, not traces: checkin
// timestamps, classification kinds and ground-truth labels (one small
// column each per checkin), the detect feature vectors, the per-user
// visit statistics, and the three Levy flight samples the §6.1 models
// train on. GPS fixes — the overwhelming bulk of a dataset — never
// enter the log, which is why it is typically an order of magnitude
// smaller than the GSB1 stream it was derived from.
//
// Layout (all integers are varints unless noted; "GSO" = GeoSocial
// Outcomes, styled after the GSB1 dataset stream):
//
//	magic        4 bytes "GSO1"
//	version      uvarint (currently 1)
//	name         string (uvarint length + UTF-8 bytes)
//	feature dim  uvarint (detect.FeatureDim at write time)
//	kind count   uvarint (classify.NumKinds at write time)
//	records      per user: uvarint payload length (> 0), then the payload
//	sentinel     uvarint 0
//	trailer      uvarint record count (cross-checked by the reader)
//
// Record payload (columnar: each field of every checkin is stored as a
// contiguous block, so a scan that needs one column touches one run of
// bytes):
//
//	user id      zigzag varint
//	profile      friends/badges/mayors (zigzag), checkins/day (8-byte LE
//	             float64)
//	visits       uvarint detected-visit count
//	missing      uvarint unmatched-visit count
//	checkins     uvarint count nCk, then the per-checkin columns:
//	  times      first timestamp as zigzag varint, then uvarint deltas
//	             (checkins are time-ordered)
//	  kinds      nCk bytes (classify.Kind, < kind count)
//	  truth      nCk labels (enum, or enum escape + string)
//	  features   feature-dim columns of nCk 8-byte LE float64 each
//	             (column-major)
//	levy         three flight blocks (gps, honest, all): uvarint count,
//	             count dists, count times (8-byte LE float64 columns);
//	             then pauses: uvarint count + count float64
//
// Floats are stored as exact IEEE-754 bits — never quantized — because
// the package's contract is that log-backed analyses are *exactly*
// equal to in-memory analyses of the same users, to the last ulp.
//
// Canonical order. Records are stored sorted by user ID (strictly
// increasing — duplicate users are invalid), regardless of the order
// outcomes reached the Writer. Validation delivers outcomes in a merged
// order that depends on how a corpus is sharded; sorting at Close makes
// the log bytes a pure function of the dataset, so outcome logs are
// byte-identical for any worker count and any shard split — the same
// contract the partition aggregates satisfy. The Writer keeps only an
// O(users) index in memory to do this: records spool to a temp file as
// they arrive and are re-sequenced with positioned reads at Close.
package outcome

import (
	"fmt"

	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/detect"
	"geosocial/internal/levy"
	"geosocial/internal/trace"
)

// Record is one user's decoded outcome-log entry: the user-level
// analysis inputs distilled from a core.UserOutcome and its
// classification. All per-checkin slices are index-aligned with the
// user's checkin trace.
type Record struct {
	// UserID identifies the user; records in a log are strictly
	// increasing by ID.
	UserID int
	// Profile carries the Table 2 incentive features.
	Profile trace.Profile
	// Visits is the number of detected visits (stay points).
	Visits int
	// Missing is the number of visits not matched by any checkin.
	Missing int
	// Times holds the checkin timestamps (Unix seconds, non-decreasing).
	Times []int64
	// Kinds holds the §5.1 classification of each checkin.
	Kinds []classify.Kind
	// Truth holds the generator ground-truth label of each checkin
	// (LabelNone for real data).
	Truth []trace.Label
	// Features holds the detect feature vector of each checkin.
	Features [][detect.FeatureDim]float64
	// GPSFlights, HonestFlights and AllFlights are the user's §6.1 Levy
	// fitting samples from detected visits, matched checkins, and the
	// full checkin trace respectively.
	GPSFlights    []levy.Flight
	HonestFlights []levy.Flight
	AllFlights    []levy.Flight
	// Pauses are the visit stay durations in minutes (the GPS model's
	// pause sample).
	Pauses []float64
}

// NewRecord distills one validated, classified user into a Record. The
// classification must be parallel to the user's checkin trace (as
// produced by classify.ClassifyUser on the same outcome).
func NewRecord(o core.UserOutcome, cls *classify.Classification) (*Record, error) {
	cks := o.User.Checkins
	if cls == nil || len(cls.Kinds) != len(cks) {
		return nil, fmt.Errorf("outcome: user %d: classification does not match %d checkins", o.User.ID, len(cks))
	}
	r := &Record{
		UserID:  o.User.ID,
		Profile: o.User.Profile,
		Visits:  len(o.Visits),
		Missing: o.Match.Missing(),
		Kinds:   append([]classify.Kind(nil), cls.Kinds...),
	}
	if n := len(cks); n > 0 {
		r.Times = make([]int64, n)
		r.Truth = make([]trace.Label, n)
		for i, c := range cks {
			r.Times[i] = c.T
			r.Truth[i] = c.Truth
		}
		r.Features = make([][detect.FeatureDim]float64, n)
		for i, e := range detect.Extract(o) {
			r.Features[i] = e.X
		}
	}
	gps := levy.SampleFromVisits(o.Visits)
	// Canonical form: empty columns are nil, matching what the decoder
	// produces, so freshly built and round-tripped records compare equal.
	r.GPSFlights, r.Pauses = canonFlights(gps.Flights), canonF64(gps.Pauses)
	r.HonestFlights = canonFlights(levy.SampleFromCheckins(cks, o.Match.IsHonest).Flights)
	r.AllFlights = canonFlights(levy.SampleFromCheckins(cks, nil).Flights)
	return r, nil
}

func canonFlights(fl []levy.Flight) []levy.Flight {
	if len(fl) == 0 {
		return nil
	}
	return fl
}

func canonF64(v []float64) []float64 {
	if len(v) == 0 {
		return nil
	}
	return v
}

// Checkins returns the number of checkins in the record.
func (r *Record) Checkins() int { return len(r.Times) }

// Counts returns the per-kind checkin histogram.
func (r *Record) Counts() classify.KindCounts { return classify.CountsOf(r.Kinds) }

// Honest returns the number of matched (honest) checkins.
func (r *Record) Honest() int {
	n := 0
	for _, k := range r.Kinds {
		if k == classify.Honest {
			n++
		}
	}
	return n
}

// AddTo accumulates the record's Figure 1 contribution into a
// partition, exactly as Partition.Add would for the live outcome.
func (r *Record) AddTo(p *core.Partition) {
	honest := r.Honest()
	p.Checkins += len(r.Times)
	p.Visits += r.Visits
	p.Honest += honest
	p.Extraneous += len(r.Times) - honest
	p.Missing += r.Missing
}

// AddTruth accumulates the record's labeled checkins into a truth
// accumulator, exactly as TruthAccum.Add would for the live outcome
// (kind Honest is the matcher's verdict).
func (r *Record) AddTruth(a *core.TruthAccum) {
	for i, l := range r.Truth {
		a.AddLabel(l, r.Kinds[i] == classify.Honest)
	}
}

// AddSamples appends the record's three Levy fitting samples to the
// population samples (pauses belong to the GPS sample). Appending
// records in canonical order reproduces exactly the samples
// eval.FitModels assembles from live outcomes; every log consumer
// (outcome.Samples, the facade's levy analysis) accumulates through
// this one method.
func (r *Record) AddSamples(gpsSm, honestSm, allSm *levy.Sample) {
	gpsSm.Flights = append(gpsSm.Flights, r.GPSFlights...)
	gpsSm.Pauses = append(gpsSm.Pauses, r.Pauses...)
	honestSm.Flights = append(honestSm.Flights, r.HonestFlights...)
	allSm.Flights = append(allSm.Flights, r.AllFlights...)
}

// Examples reconstructs the detect training examples for this user,
// index-aligned and bit-identical to detect.Extract on the live
// outcome (the features were computed there in the first place).
func (r *Record) Examples() []detect.Example {
	if len(r.Times) == 0 {
		return nil
	}
	out := make([]detect.Example, len(r.Times))
	for i := range r.Times {
		out[i] = detect.Example{
			X:          r.Features[i],
			Extraneous: r.Kinds[i] != classify.Honest,
			User:       r.UserID,
		}
	}
	return out
}

// validate checks the internal invariants a decoded record must
// satisfy; the decoder calls it so corruption surfaces as an error,
// never as skewed analysis inputs.
func (r *Record) validate(kindCount int) error {
	n := len(r.Times)
	if len(r.Kinds) != n || len(r.Truth) != n || (n > 0 && len(r.Features) != n) {
		return fmt.Errorf("outcome: user %d: ragged checkin columns", r.UserID)
	}
	return r.check(kindCount)
}

// check is validate without the column-length test, for records whose
// columns were read off one checkin count (walkRecord leaves Features
// unread): times in order, kinds in range, visits accounted.
func (r *Record) check(kindCount int) error {
	for i, t := range r.Times {
		if i > 0 && t < r.Times[i-1] {
			return fmt.Errorf("outcome: user %d: checkin %d out of order", r.UserID, i)
		}
	}
	for i, k := range r.Kinds {
		if k < 0 || int(k) >= kindCount {
			return fmt.Errorf("outcome: user %d: checkin %d has invalid kind %d", r.UserID, i, k)
		}
	}
	if r.Visits < 0 || r.Missing < 0 || r.Honest()+r.Missing != r.Visits {
		return fmt.Errorf("outcome: user %d: visit accounting broken (visits=%d honest=%d missing=%d)",
			r.UserID, r.Visits, r.Honest(), r.Missing)
	}
	return nil
}
