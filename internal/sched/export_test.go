package sched

import (
	"plbhec/internal/ipm"
	"plbhec/internal/profile"
)

// SolveState exposes to external tests the curves, models and dead marks
// PLB-HeC solved with last.
func (p *PLBHeC) SolveState() ([]ipm.Curve, []profile.Model, []bool) {
	return p.curves, p.models.PU, p.dead
}
