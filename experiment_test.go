package geosocial

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/eval"
	"geosocial/internal/trace"
)

// referenceContext builds a study's experiment context from the serial
// references: core.Validator.ValidateDataset, which snaps visits to the
// dataset's POIs, for each cohort, and classify.ClassifyAll for the
// primary.
func referenceContext(t *testing.T, s *Study) *eval.Context {
	t.Helper()
	v := core.NewValidator()
	pOuts, pPart, err := v.ValidateDataset(s.Primary)
	if err != nil {
		t.Fatal(err)
	}
	bOuts, bPart, err := v.ValidateDataset(s.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := classify.ClassifyAll(pOuts, classify.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return &eval.Context{
		Scale: s.cfg.Scale, Seed: s.cfg.Seed,
		Primary: s.Primary, Baseline: s.Baseline,
		PrimaryOuts: pOuts, PrimaryPart: pPart,
		BaselineOuts: bOuts, BaselinePart: bPart,
		Cls: cls,
	}
}

// TestRunExperimentMatchesReference pins the facade's experiments, run
// on the parallel engine, to the serial references: every experiment
// but fig8 (a MANET simulation over the same outcomes) renders the same
// bytes, and one Validate plus every RunExperiment, all started at
// once, validate each cohort exactly once.
func TestRunExperimentMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			runs := make(map[*trace.Dataset]int)
			orig := validateCohort
			validateCohort = func(ds *trace.Dataset, w int) (*ValidationResult, error) {
				mu.Lock()
				runs[ds]++
				mu.Unlock()
				return orig(ds, w)
			}
			t.Cleanup(func() { validateCohort = orig })

			s, err := GenerateStudy(StudyConfig{Scale: 0.1, Seed: 42, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceContext(t, s)
			// Every experiment and Validate start at once, so the cohort
			// runs, and the outcomes the reports share, are reached from
			// several goroutines.
			var ids []string
			for _, id := range eval.IDs() {
				if id != "fig8" {
					ids = append(ids, id)
				}
			}
			got := make([]bytes.Buffer, len(ids))
			var res *ValidationResult
			var wg sync.WaitGroup
			for i, id := range ids {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := s.RunExperiment(id, &got[i]); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if res, err = s.Validate(); err != nil {
					t.Error(err)
				}
			}()
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if res.Partition != ref.PrimaryPart {
				t.Fatalf("partition %+v, reference %+v", res.Partition, ref.PrimaryPart)
			}
			if !reflect.DeepEqual(res.Outcomes, ref.PrimaryOuts) {
				t.Fatal("outcomes differ from the serial reference")
			}
			if !reflect.DeepEqual(res.Classifications, ref.Cls) {
				t.Fatal("classifications differ from the serial reference")
			}
			for i, id := range ids {
				rep, err := eval.Run(ref, id)
				if err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				if err := rep.Render(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[i].Bytes(), want.Bytes()) {
					t.Errorf("%s: facade report differs from the reference\n--- facade:\n%s--- reference:\n%s", id, got[i].Bytes(), want.Bytes())
				}
			}
			if runs[s.Primary] != 1 || runs[s.Baseline] != 1 || len(runs) != 2 {
				t.Errorf("validation runs per cohort = primary %d, baseline %d (%d datasets); want 1 each",
					runs[s.Primary], runs[s.Baseline], len(runs))
			}
		})
	}
}
