package geosocial

import "geosocial/internal/eval"

// EvalContext exposes a study's experiment context, built from its
// shared cohort validations, to the external benchmark harness.
func EvalContext(s *Study) (*eval.Context, error) { return s.evalContext() }
