// Package sched implements the four load-balancing policies the paper
// evaluates (§IV):
//
//   - PLBHeC — the paper's contribution: online performance-curve modeling,
//     block-size selection by an exact water-filling solve of the fitted
//     equation system, and threshold-triggered rebalancing (Algorithm 2).
//   - Greedy — StarPU's default: fixed-size blocks to any idle unit.
//   - HDSS — Belviranli et al. [19]: adaptive phase fitting log-curve
//     weights, then a completion phase with decreasing block sizes.
//   - Acosta — Acosta et al. [18]: iterative relative-power rebalancing
//     with a synchronization barrier per iteration.
//
// A Static oracle (perfect-knowledge split, zero overhead) is provided for
// ablations.
//
// All policies drive the same starpu.Scheduler hook surface, so any of them
// can run on the simulated Table I cluster or on live goroutine workers.
package sched

import (
	"plbhec/internal/cluster"
	"plbhec/internal/starpu"
)

// Config carries the knobs shared by every policy.
type Config struct {
	// InitialBlockSize is the first probe/block size in work units. The
	// paper sets it empirically per application "so that the initial phase
	// takes about 10% of execution time" and uses the same value for every
	// algorithm.
	InitialBlockSize float64
}

func (c Config) initialBlock() float64 {
	if c.InitialBlockSize <= 0 {
		return 1
	}
	return c.InitialBlockSize
}

// Greedy is StarPU's default dispatcher: the input is cut in fixed-size
// pieces handed to whichever processing unit is idle (§IV: "assigning each
// piece of input to any idle processing unit, without any priority").
type Greedy struct {
	Config

	blocks   float64 // blocks dispatched
	reroutes float64 // blocks redirected away from a failed unit
	locHops  float64 // blocks routed to a different idle unit for its data
}

// Stats implements starpu.StatsReporter.
func (g *Greedy) Stats() map[string]float64 {
	return map[string]float64{"blocks": g.blocks, "reroutes": g.reroutes,
		"localityRoutes": g.locHops}
}

// NewGreedy returns a greedy scheduler with the given block size.
func NewGreedy(cfg Config) *Greedy { return &Greedy{Config: cfg} }

// Name implements starpu.Scheduler.
func (g *Greedy) Name() string { return "greedy" }

// Start hands each unit its first block.
func (g *Greedy) Start(s *starpu.Session) {
	for _, pu := range s.PUs() {
		if s.Remaining() == 0 {
			return
		}
		if !pu.Dev.Failed() {
			if s.Assign(pu, g.initialBlock()) > 0 {
				g.blocks++
			}
		}
	}
}

// TaskFinished immediately re-feeds the unit that became idle, falling
// back to any surviving unit if it failed mid-run. In locality mode the
// next block instead goes to whichever idle unit can start it with the
// least data movement — "any idle processing unit" leaves the choice free,
// so the tie is broken toward resident data.
func (g *Greedy) TaskFinished(s *starpu.Session, rec starpu.TaskRecord) {
	if s.Remaining() == 0 {
		return
	}
	pu := s.PUs()[rec.PU]
	if s.LocalityEnabled() {
		if best := g.pickLocalIdle(s); best != nil {
			if best.ID != rec.PU {
				g.locHops++
			}
			pu = best
		}
	}
	if pu.Dev.Failed() {
		for _, other := range s.PUs() {
			if !other.Dev.Failed() {
				pu = other
				break
			}
		}
		if pu.Dev.Failed() {
			return // every unit failed; the runtime will report the stall
		}
		g.reroutes++
	}
	if s.Assign(pu, g.initialBlock()) > 0 {
		g.blocks++
	}
}

// pickLocalIdle returns the idle, healthy unit that can start the next
// cursor block with the least nominal transfer time (lowest ID on ties —
// deterministic), or nil when no unit is idle and the caller should keep
// the legacy re-feed target.
func (g *Greedy) pickLocalIdle(s *starpu.Session) *cluster.PU {
	best := -1
	var bestCost float64
	for i, pu := range s.PUs() {
		if pu.Dev.Failed() || s.InFlightOn(i) > 0 {
			continue
		}
		cost := s.NextTransferSeconds(i, g.initialBlock())
		if best < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best < 0 {
		return nil
	}
	return s.PUs()[best]
}
