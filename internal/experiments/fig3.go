package experiments

import (
	"fmt"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// The §4 application-level study generates strategies per job against
// resources carrying random background load from independent flows, without
// job-flow coordination. The Fig. 3 corpus's calibration (EXPERIMENTS.md
// holds the trail: the collision split is most sensitive to the transfer
// weight and pipeline length, the admissibility rates to the deadline factor
// and background volume). Tight deadlines push strategies with heavy
// data-transfer penalties onto fast nodes.
const (
	fig3DeadlineFactor    = 1.2
	fig3BackgroundPerNode = 10.0
)

// Every background reservation lasts backgroundDurLo–Hi ticks and starts in
// the first backgroundSpan ticks of the horizon.
const (
	backgroundDurLo, backgroundDurHi = 10, 25
	backgroundSpan                   = 250
)

// fig3Workload is the Fig. 3 corpus at the given deadline stretch: §4's
// widths and depths, with heavier transfers and long pipelines. Heavier
// transfers widen the gap between the data policies, which is what separates
// the strategies' collision profiles; long pipelines make coarse-grain macro
// tasks dominate the critical path, forcing S3 onto the fastest nodes.
func fig3Workload(seed uint64, deadlineFactor float64) workload.Config {
	cfg := workload.Default(seed)
	cfg.DeadlineFactor = deadlineFactor
	cfg.TransferLo, cfg.TransferHi = 2, 8
	cfg.PipelineProb, cfg.MaxPipeline = 0.8, 5
	return cfg
}

// fig3Strategies are the families of the application-level study.
var fig3Strategies = []strategy.Type{strategy.S1, strategy.S2, strategy.S3}

// loadedCalendars builds one job's background-load snapshot: every node
// receives perNode external reservations on average, scattered over the
// background span.
func loadedCalendars(env *resource.Environment, r *rng.Source, perNode float64) criticalworks.Calendars {
	cals := criticalworks.EmptyCalendars(env)
	for _, n := range env.Nodes() {
		count := int(perNode)
		if r.Float64() < perNode-float64(count) {
			count++
		}
		for k := 0; k < count; k++ {
			start := simtime.Time(r.Int64n(backgroundSpan))
			dur := simtime.Time(r.Int64Between(backgroundDurLo, backgroundDurHi))
			// Conflicting background windows are simply dropped.
			_ = cals[n.ID].Reserve(simtime.Interval{Start: start, End: start + dur}, resource.External)
		}
	}
	return cals
}

// mapCorpus runs plan on every job of a Fig. 3-shaped corpus — the Fig. 3
// workload at deadlineFactor on one domain, each job against its own
// background snapshot of perNode reservations per node — across cfg.Workers
// goroutines, and returns the results in job order. A job's snapshot comes
// from its own pre-split RNG stream, so every worker count sees the same one.
func mapCorpus[T any](cfg Config, deadlineFactor, perNode float64,
	plan func(env *resource.Environment, job *dag.Job, cals criticalworks.Calendars) (T, error)) ([]T, error) {
	if err := checkJobs(cfg.Jobs); err != nil {
		return nil, err
	}
	gen := workload.New(fig3Workload(cfg.Seed, deadlineFactor))
	env := gen.Environment(1)
	streams := rng.New(cfg.Seed).Split(0xB6).SplitN(cfg.Jobs)
	return workload.MapIndexed(cfg.Workers, cfg.Jobs, func(i int) (T, error) {
		return plan(env, gen.Job(i), loadedCalendars(env, streams[i], perNode))
	})
}

// checkJobs refuses a corpus of no jobs: its shares would divide by zero,
// and a flow without arrivals would leave the VO's background load re-arming
// forever.
func checkJobs(jobs int) error {
	if jobs < 1 {
		return fmt.Errorf("experiments: %d jobs, want at least 1", jobs)
	}
	return nil
}

// fig3Run holds the per-strategy aggregates of one corpus pass.
type fig3Run struct {
	admissible map[strategy.Type]int
	collisions map[strategy.Type]*counter
	total      int
}

// fig3JobTally is one job's contribution to the corpus aggregates, indexed
// by position in fig3Strategies.
type fig3JobTally struct {
	admissible [3]bool
	fast, slow [3]int
}

// runFig3 generates each job's strategy for every family against identical
// background snapshots and tallies admissibility and collision placement.
// Fig. 3(a) and Fig. 3(b) both read its pass, which one Config's memo keeps
// (memo.get), so gridsim runs it once when both rows are asked for.
func runFig3(cfg Config) (*fig3Run, error) {
	tallies, err := mapCorpus(cfg, fig3DeadlineFactor, fig3BackgroundPerNode,
		func(env *resource.Environment, job *dag.Job, cals criticalworks.Calendars) (fig3JobTally, error) {
			var tally fig3JobTally
			// MinCost reproduces the paper's economics: strategies drift to the
			// cheapest (slowest) nodes their deadline and data policy allow, which
			// is what shapes both the admissibility rates and the collision split.
			sgen := strategy.Generator{Env: env, Objective: criticalworks.MinCost, Telemetry: cfg.Telemetry}
			for ti, typ := range fig3Strategies {
				st, err := sgen.Generate(job, typ, cals, 0)
				if err != nil {
					return tally, fmt.Errorf("experiments: fig3 %s type %v: %w", job.Name, typ, err)
				}
				tally.admissible[ti] = st.Admissible()
				// Fig. 3b counts the conflicts of the supporting schedules the
				// strategy actually consists of — the admissible distributions
				// (attempts at levels that end up infeasible are not part of
				// the strategy). The two-way split is "fast" nodes
				// (performance 0.66–1) versus the slower rest.
				for _, d := range st.Distributions {
					if !d.Admissible {
						continue
					}
					for _, c := range d.Schedule.Collisions {
						if env.Node(c.Node).Group() == resource.GroupFast {
							tally.fast[ti]++
						} else {
							tally.slow[ti]++
						}
					}
				}
			}
			return tally, nil
		})
	if err != nil {
		return nil, err
	}

	run := &fig3Run{
		admissible: make(map[strategy.Type]int),
		collisions: make(map[strategy.Type]*counter),
		total:      cfg.Jobs,
	}
	for _, typ := range fig3Strategies {
		run.collisions[typ] = newCounter()
	}
	for _, tally := range tallies {
		for ti, typ := range fig3Strategies {
			if tally.admissible[ti] {
				run.admissible[typ]++
			}
			run.collisions[typ].inc("fast", tally.fast[ti])
			run.collisions[typ].inc("slow", tally.slow[ti])
		}
	}
	return run, nil
}

// fig3a regenerates Fig. 3(a): the percentage of jobs with at least one
// admissible application-level schedule per strategy family (paper: S1
// 38%, S2 37%, S3 33%).
func fig3a(cfg Config) (*Report, error) {
	run, err := cfg.fig3.get(cfg, runFig3)
	if err != nil {
		return nil, err
	}
	r := newReport("fig3a", "admissible application-level schedules (paper Fig. 3a: S1 38%, S2 37%, S3 33%)")
	r.addLine("%-6s %12s  (over %d jobs)", "type", "admissible", run.total)
	for _, typ := range fig3Strategies {
		share := float64(run.admissible[typ]) / float64(run.total)
		r.addLine("%-6s %12s", typ, ratio(share))
		r.Values["admissible-"+typ.String()] = share
	}
	return r, nil
}

// fig3b regenerates Fig. 3(b): where collisions between critical works
// land — fast versus slow nodes (paper: S1 32/68, S2 56/44, S3 74/26).
func fig3b(cfg Config) (*Report, error) {
	run, err := cfg.fig3.get(cfg, runFig3)
	if err != nil {
		return nil, err
	}
	r := newReport("fig3b", "collision split across node speeds (paper Fig. 3b: S1 32/68, S2 56/44, S3 74/26)")
	r.addLine("%-6s %8s %8s %10s", "type", "fast", "slow", "collisions")
	for _, typ := range fig3Strategies {
		c := run.collisions[typ]
		r.addLine("%-6s %8s %8s %10d", typ,
			ratio(c.share("fast")), ratio(c.share("slow")), c.total())
		r.Values["fast-"+typ.String()] = c.share("fast")
		r.Values["slow-"+typ.String()] = c.share("slow")
		r.Values["total-"+typ.String()] = float64(c.total())
	}
	return r, nil
}
