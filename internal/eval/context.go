package eval

import (
	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/trace"
)

// Context holds the datasets and the shared pipeline outputs (visits,
// matches, classifications) every experiment consumes. The facade
// (geosocial.Study) builds it from one validation of each cohort, so
// the experiments share that work; this package only analyses it.
type Context struct {
	// Scale is the population scale relative to the paper's study
	// (1.0 = 244 primary + 47 baseline users).
	Scale float64
	Seed  uint64

	Primary  *trace.Dataset
	Baseline *trace.Dataset

	// Outcomes carry visits snapped to each dataset's POIs (Figures 3
	// and 4 read the snap).
	PrimaryOuts  []core.UserOutcome
	PrimaryPart  core.Partition
	BaselineOuts []core.UserOutcome
	BaselinePart core.Partition

	Cls []*classify.Classification // primary, parallel to PrimaryOuts
}

// UserDays returns the total user-days of a dataset.
func UserDays(ds *trace.Dataset) float64 {
	var days float64
	for _, u := range ds.Users {
		days += u.Days
	}
	return days
}
