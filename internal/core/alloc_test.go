package core

import (
	"testing"

	"geosocial/internal/trace"
)

// TestMatchSteadyStateAllocs pins the matching hot path: once a Matcher
// and a recycled Result have been through one warm-up call, repeated
// MatchInto calls must stay within one allocation per call (the budget
// leaves headroom; the current implementation needs zero). Both window
// layouts are covered: visits in start order, searched in place, and
// the same visits shuffled, searched through the window's permutation.
func TestMatchSteadyStateAllocs(t *testing.T) {
	vs := []trace.Visit{
		visit(0, 10, 30),
		visit(120, 40, 55),
		visit(900, 70, 95),
		visit(40, 100, 130),
	}
	cks := trace.CheckinTrace{
		checkin(10, 15),
		checkin(130, 42),
		checkin(2500, 60), // extraneous: nothing within α
		checkin(890, 80),
		checkin(35, 110),
		checkin(45, 112), // conflicting claim on the same visit
	}
	shuffled := []trace.Visit{vs[2], vs[0], vs[3], vs[1]}
	p := DefaultParams()
	for name, vs := range map[string][]trace.Visit{"sorted": vs, "shuffled": shuffled} {
		var m Matcher
		var res Result
		if err := m.MatchInto(&res, cks, vs, p); err != nil {
			t.Fatal(err)
		}
		if res.Honest() == 0 || res.Extraneous() == 0 {
			t.Fatalf("%s: fixture produced no interesting partition: %d honest, %d extraneous, %d missing",
				name, res.Honest(), res.Extraneous(), res.Missing())
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := m.MatchInto(&res, cks, vs, p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Fatalf("%s: steady-state MatchInto: %v allocs per run, want <= 1", name, allocs)
		}
	}
}
