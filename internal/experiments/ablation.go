package experiments

import (
	"fmt"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/strategy"
)

// ablationCollision (E8) isolates the paper's collision-resolution design
// choice (§3): resolving a blocked critical work by economic reallocation
// — the DP is free to pay for another node — versus the naive baseline
// that only ever delays the task on its ideal node.
func ablationCollision(cfg Config) (*Report, error) {
	cfg.Jobs = min(cfg.Jobs, ablationMaxJobs)
	r := newReport("ablation-collision",
		"collision resolution: economic reallocation vs pinned-node delay (§3 design choice)")
	names := []string{"economic-reallocation", "pinned-node-delay"}
	modes := []criticalworks.CollisionMode{criticalworks.ResolveReallocate, criticalworks.ResolveDelay}

	// A job's outcome under each mode is the cheapest admissible schedule of
	// its S2 strategy.
	outs, err := mapCorpus(cfg, fig3DeadlineFactor, fig3BackgroundPerNode,
		func(env *resource.Environment, job *dag.Job, cals criticalworks.Calendars) ([]planOutcome, error) {
			outs := make([]planOutcome, len(modes))
			for m, mode := range modes {
				sgen := strategy.Generator{Env: env, Objective: criticalworks.MinCost, Mode: mode, Telemetry: cfg.Telemetry}
				s, err := sgen.Generate(job, strategy.S2, cals, 0)
				if err != nil || !s.Admissible() {
					continue
				}
				d := s.CheapestAdmissible()
				outs[m] = planOutcome{ok: true, finish: int64(d.Finish), cost: d.Cost}
			}
			return outs, nil
		})
	if err != nil {
		return nil, err
	}
	addPlanRows(r, "mode", 22, names, outs)
	return r, nil
}

// E9's corpus is Fig. 3's with looser deadlines and lighter background load,
// so that the intermediate estimation levels are actually admissible and the
// S1-vs-MS1 coverage difference is visible.
const (
	levelsDeadlineFactor    = 1.9
	levelsBackgroundPerNode = 4.0
)

// ablationLevels (E9) quantifies §4's S1-vs-MS1 trade-off: sweeping only
// the best- and worst-case estimation levels (MS1) is cheaper to generate
// but covers fewer environment events than the full sweep (S1).
func ablationLevels(cfg Config) (*Report, error) {
	cfg.Jobs = min(cfg.Jobs, ablationMaxJobs)
	r := newReport("ablation-levels",
		"strategy breadth: full level sweep (S1) vs best/worst only (MS1) (§4)")
	types := []strategy.Type{strategy.S1, strategy.MS1}

	// A job's strategy under each family: whether it is admissible, the DP
	// evaluations it cost and how many admissible levels it holds.
	type outcome struct {
		admissible  bool
		evaluations int64
		levels      int
	}
	outs, err := mapCorpus(cfg, levelsDeadlineFactor, levelsBackgroundPerNode,
		func(env *resource.Environment, job *dag.Job, cals criticalworks.Calendars) ([2]outcome, error) {
			var o [2]outcome
			sgen := strategy.Generator{Env: env, Objective: criticalworks.MinCost, Telemetry: cfg.Telemetry}
			for ti, typ := range types {
				s, err := sgen.Generate(job, typ, cals, 0)
				if err != nil {
					return o, fmt.Errorf("experiments: ablation-levels %s: %w", job.Name, err)
				}
				o[ti] = outcome{admissible: s.Admissible(), evaluations: s.Evaluations}
				for _, d := range s.Distributions {
					if d.Admissible {
						o[ti].levels++
					}
				}
			}
			return o, nil
		})
	if err != nil {
		return nil, err
	}
	r.addLine("%-6s %12s %16s %18s", "type", "admissible", "DP-evaluations", "admissible-levels")
	for ti, typ := range types {
		admissible, levels := 0, 0
		var evaluations int64
		for _, o := range outs {
			if o[ti].admissible {
				admissible++
			}
			evaluations += o[ti].evaluations
			levels += o[ti].levels
		}
		share := float64(admissible) / float64(cfg.Jobs)
		perJob := float64(levels) / float64(cfg.Jobs)
		r.addLine("%-6s %12s %16d %18.2f", typ, ratio(share), evaluations, perJob)
		r.Values["admissible-"+typ.String()] = share
		r.Values["evaluations-"+typ.String()] = float64(evaluations)
		r.Values["levels-"+typ.String()] = perJob
	}
	return r, nil
}
