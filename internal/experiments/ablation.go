package experiments

import (
	"fmt"

	"repro/internal/criticalworks"
	"repro/internal/parallel"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// AblationCollision (E8) isolates the paper's collision-resolution design
// choice (§3): resolving a blocked critical work by economic reallocation
// — the DP is free to pay for another node — versus the naive baseline
// that only ever delays the task on its ideal node.
func AblationCollision(cfg Fig3Config) (*Report, error) {
	r := newReport("ablation-collision",
		"collision resolution: economic reallocation vs pinned-node delay (§3 design choice)")
	wcfg := fig3WorkloadConfig(cfg)
	gen := workload.New(wcfg)
	env := gen.Environment(1)

	type stats struct {
		admissible int
		finish     Series
		cost       Series
	}
	// Each job is an independent unit; the per-job outcomes are merged into
	// the Series in job order so the float accumulation (and therefore the
	// report bytes) is identical at any worker count.
	type jobOutcome struct {
		admissible bool
		finish     int64
		cost       int64
	}
	run := func(mode criticalworks.CollisionMode) (*stats, error) {
		sgen := &strategy.Generator{Env: env, Objective: criticalworks.MinCost, Mode: mode, Telemetry: cfg.Telemetry}
		streams := fig3Background(cfg).SplitN(cfg.Jobs)
		outs, err := parallel.Map(cfg.Workers, cfg.Jobs, func(i int) (jobOutcome, error) {
			job := gen.Job(i)
			cals := loadedCalendars(env, streams[i], cfg)
			s, err := sgen.Generate(job, strategy.S2, cals, 0)
			if err != nil || !s.Admissible() {
				return jobOutcome{}, nil
			}
			d := s.CheapestAdmissible()
			return jobOutcome{admissible: true, finish: int64(d.Finish), cost: d.BareCF}, nil
		})
		if err != nil {
			return nil, err
		}
		st := &stats{}
		for _, o := range outs {
			if !o.admissible {
				continue
			}
			st.admissible++
			st.finish.AddInt(o.finish)
			st.cost.AddInt(o.cost)
		}
		return st, nil
	}

	realloc, err := run(criticalworks.ResolveReallocate)
	if err != nil {
		return nil, err
	}
	delay, err := run(criticalworks.ResolveDelay)
	if err != nil {
		return nil, err
	}
	r.addLine("%-22s %12s %12s %10s", "mode", "admissible", "mean-finish", "mean-CF")
	for _, row := range []struct {
		name string
		st   *stats
	}{{"economic-reallocation", realloc}, {"pinned-node-delay", delay}} {
		share := float64(row.st.admissible) / float64(cfg.Jobs)
		r.addLine("%-22s %12s %12.1f %10.1f", row.name, Ratio(share),
			row.st.finish.Mean(), row.st.cost.Mean())
		r.Values["admissible-"+row.name] = share
		r.Values["finish-"+row.name] = row.st.finish.Mean()
		r.Values["cf-"+row.name] = row.st.cost.Mean()
	}
	return r, nil
}

// DefaultAblationLevels returns the E9 configuration: the Fig. 3 corpus
// with looser deadlines, so that the intermediate estimation levels are
// actually admissible and the S1-vs-MS1 coverage difference is visible.
func DefaultAblationLevels(seed uint64, jobs int) Fig3Config {
	cfg := DefaultFig3(seed, jobs)
	cfg.DeadlineFactor = 1.9
	cfg.BackgroundPerNode = 4
	return cfg
}

// AblationLevels (E9) quantifies §4's S1-vs-MS1 trade-off: sweeping only
// the best- and worst-case estimation levels (MS1) is cheaper to generate
// but covers fewer environment events than the full sweep (S1).
func AblationLevels(cfg Fig3Config) (*Report, error) {
	r := newReport("ablation-levels",
		"strategy breadth: full level sweep (S1) vs best/worst only (MS1) (§4)")
	wcfg := fig3WorkloadConfig(cfg)
	gen := workload.New(wcfg)
	env := gen.Environment(1)
	sgen := &strategy.Generator{Env: env, Objective: criticalworks.MinCost, Telemetry: cfg.Telemetry}

	type stats struct {
		admissible  int
		evaluations int64
		dists       int
	}
	ablationTypes := []strategy.Type{strategy.S1, strategy.MS1}
	type jobOutcome struct {
		admissible  [2]bool
		evaluations [2]int64
		dists       [2]int
	}
	streams := fig3Background(cfg).SplitN(cfg.Jobs)
	outs, err := parallel.Map(cfg.Workers, cfg.Jobs, func(i int) (jobOutcome, error) {
		var o jobOutcome
		job := gen.Job(i)
		cals := loadedCalendars(env, streams[i], cfg)
		for ti, typ := range ablationTypes {
			s, err := sgen.Generate(job, typ, cals, 0)
			if err != nil {
				return o, fmt.Errorf("experiments: ablation-levels job %d: %w", i, err)
			}
			o.admissible[ti] = s.Admissible()
			o.evaluations[ti] = s.Evaluations
			for _, d := range s.Distributions {
				if d.Admissible {
					o.dists[ti]++
				}
			}
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	out := map[strategy.Type]*stats{strategy.S1: {}, strategy.MS1: {}}
	for _, o := range outs {
		for ti, typ := range ablationTypes {
			st := out[typ]
			if o.admissible[ti] {
				st.admissible++
			}
			st.evaluations += o.evaluations[ti]
			st.dists += o.dists[ti]
		}
	}
	r.addLine("%-6s %12s %16s %18s", "type", "admissible", "DP-evaluations", "admissible-levels")
	for _, typ := range []strategy.Type{strategy.S1, strategy.MS1} {
		st := out[typ]
		share := float64(st.admissible) / float64(cfg.Jobs)
		r.addLine("%-6s %12s %16d %18.2f", typ, Ratio(share),
			st.evaluations, float64(st.dists)/float64(cfg.Jobs))
		r.Values["admissible-"+typ.String()] = share
		r.Values["evaluations-"+typ.String()] = float64(st.evaluations)
		r.Values["levels-"+typ.String()] = float64(st.dists) / float64(cfg.Jobs)
	}
	return r, nil
}
