package service

import (
	"fmt"
	"time"

	"bicc"
	"bicc/internal/par"
	"bicc/internal/plan"
)

// Plan modes accepted by Config.PlanMode and the bccd -plan flag.
const (
	// PlanOff resolves Auto queries by the static §4 rule (the Config
	// default).
	PlanOff = "off"
	// PlanAdaptive plans engine and parallelism per request from graph
	// features, blending the calibrated prior with observed latencies, and
	// explores the runner-up candidate on a deterministic cadence.
	PlanAdaptive = "adaptive"
	// PlanFrozen plans from the prior alone — deterministic decisions for
	// differential harnesses and golden tests.
	PlanFrozen = "frozen"
)

// ParsePlanMode validates a -plan flag value, normalizing "" to off.
func ParsePlanMode(s string) (string, error) {
	switch s {
	case "", PlanOff:
		return PlanOff, nil
	case PlanAdaptive, PlanFrozen:
		return s, nil
	}
	return "", fmt.Errorf("unknown plan mode %q (valid: %s, %s, %s)", s, PlanOff, PlanAdaptive, PlanFrozen)
}

// planState is the server's Auto resolution, set once in New: the adaptive
// planner when PlanMode enables it, the static §4 rule when planner is nil
// (off).
type planState struct {
	planner *plan.Planner
	mode    string
}

// newPlanState builds the per-server planner for the adaptive and frozen
// modes: candidates are filtered by the circuit breakers (an open breaker
// removes its engine from the slate — the non-mutating State check, so
// planning never consumes half-open probe slots), and cold feature buckets
// are seeded from the per-algorithm request histograms the server already
// records.
func (s *Server) newPlanState(mode string) planState {
	if mode == PlanOff {
		return planState{mode: mode}
	}
	cfg := plan.Config{
		Frozen:   mode == PlanFrozen,
		Registry: s.metrics,
		Allow: func(engine string) bool {
			b := s.breakers[engine]
			return b == nil || b.State() != BreakerOpen
		},
		History: func(engine string) (time.Duration, int64) {
			h := s.stats.perAlgorithm[engine]
			if h == nil {
				return 0, 0
			}
			hs := h.Snapshot()
			return time.Duration(hs.MeanN), hs.Count
		},
	}
	return planState{planner: plan.New(cfg), mode: mode}
}

// planExplain is the ?explain=1 response section: the planner's inputs and
// the decision, echoed so callers can audit why their query ran where it
// did. Engine and Procs always carry what was dispatched, whatever the mode.
type planExplain struct {
	Mode     string         `json:"mode"`
	Engine   string         `json:"engine"`
	Procs    int            `json:"procs"`
	Features *plan.Features `json:"features,omitempty"`
	Decision *plan.Decision `json:"decision,omitempty"`
}

// resolve is the one place the service maps Auto to a concrete (engine,
// procs) pair: through the planner when the mode enables it (procs > 0 pins
// the parallelism degree, 0 lets the planner choose it), through the static
// §4 rule at par.Procs(procs) workers otherwise. Explicit algorithms pass
// through unchanged. With explain it also returns the ?explain=1 echo.
func (ps planState) resolve(g *bicc.Graph, algo bicc.Algorithm, procs int, explain bool) (bicc.Algorithm, int, *planExplain) {
	echo := planExplain{Mode: PlanOff}
	switch {
	case algo != bicc.Auto:
	case ps.planner == nil:
		algo, procs = bicc.ResolveAlgorithm(g, algo, procs), par.Procs(procs)
	default:
		f := bicc.FeaturesFor(ps.planner, g)
		d := ps.planner.Decide(f, procs, explain)
		a, err := bicc.ParseAlgorithm(d.Engine)
		p := d.Procs
		if err != nil || a == bicc.Auto {
			// Unreachable with the current engine set; degrade to the static
			// rule rather than dispatch something unparseable.
			a, p = bicc.ResolveAlgorithm(g, algo, procs), par.Procs(procs)
		}
		algo, procs = a, p
		echo = planExplain{Mode: ps.mode, Features: &f, Decision: &d}
	}
	if !explain {
		return algo, procs, nil
	}
	echo.Engine, echo.Procs = algo.String(), par.Procs(procs)
	return algo, procs, &echo
}

// observe feeds one clean engine run into the online model, when there is
// one. Callers must filter out degraded and breaker-routed runs first.
func (ps planState) observe(g *bicc.Graph, engine string, procs int, elapsed time.Duration) {
	if ps.planner == nil {
		return
	}
	ps.planner.Observe(bicc.FeaturesFor(ps.planner, g), engine, par.Procs(procs), elapsed)
}
