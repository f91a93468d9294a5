package experiments

import (
	"fmt"

	"repro/internal/criticalworks"
	"repro/internal/parallel"
	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Fig3Config parameterizes the §4 application-level study: strategies are
// generated per job against resources carrying random background load from
// independent flows, without job-flow coordination.
type Fig3Config struct {
	Seed uint64
	// Jobs is the corpus size; the paper used "more than 12000".
	Jobs int
	// BackgroundPerNode is the mean number of background reservations per
	// node in each job's snapshot.
	BackgroundPerNode float64
	// BackgroundDurLo/Hi bound each background reservation's length.
	BackgroundDurLo, BackgroundDurHi simtime.Time
	// BackgroundSpan is the horizon background load is scattered over.
	BackgroundSpan simtime.Time
	// DeadlineFactor overrides the workload's deadline stretch (0 keeps
	// the workload default). Tighter deadlines push strategies with heavy
	// data-transfer penalties onto fast nodes.
	DeadlineFactor float64
	// TransferLo/Hi override the workload's transfer-time range (0 keeps
	// the default). Heavier transfers widen the gap between the data
	// policies, which is what separates the strategies' collision
	// profiles.
	TransferLo, TransferHi simtime.Time
	// MinWidth/MaxWidth override the job parallelism degree (0 keeps the
	// default). §4 conformed the node count to the task parallelism.
	MinWidth, MaxWidth int
	// MinLayers/MaxLayers override the job depth (0 keeps the default).
	MinLayers, MaxLayers int
	// PipelineProb/MaxPipeline override the linear-run structure (0 keeps
	// the defaults). Long pipelines make coarse-grain macro tasks dominate
	// the critical path, forcing S3 onto the fastest nodes.
	PipelineProb float64
	MaxPipeline  int
	// Workers bounds the pool fanning per-job strategy builds across
	// goroutines; ≤ 0 means one worker per CPU, 1 forces the sequential
	// path. Every worker count produces byte-identical reports: each job
	// draws from its own pre-split RNG stream and the per-job tallies are
	// merged in job order.
	Workers int
	// Telemetry, when non-nil, receives grid_strategy_* and
	// grid_criticalworks_* runtime metrics from every build. Observe-only:
	// reports are byte-identical with or without it, at any worker count.
	Telemetry *telemetry.Registry
}

// DefaultFig3 returns the calibrated configuration (see EXPERIMENTS.md for
// the calibration trail: the collision split is most sensitive to the
// transfer weight and pipeline length, the admissibility rates to the
// deadline factor and background volume).
func DefaultFig3(seed uint64, jobs int) Fig3Config {
	return Fig3Config{
		Seed:              seed,
		Jobs:              jobs,
		BackgroundPerNode: 10,
		BackgroundDurLo:   10,
		BackgroundDurHi:   25,
		BackgroundSpan:    250,
		DeadlineFactor:    1.2,
		TransferLo:        2,
		TransferHi:        8,
		MinWidth:          2,
		MaxWidth:          4,
		MinLayers:         3,
		MaxLayers:         5,
		PipelineProb:      0.8,
		MaxPipeline:       5,
	}
}

// fig3Strategies are the families of the application-level study.
var fig3Strategies = []strategy.Type{strategy.S1, strategy.S2, strategy.S3}

// loadedCalendars builds one job's background-load snapshot: every node
// receives a random number of external reservations scattered over the
// background span.
func loadedCalendars(env *resource.Environment, r *rng.Source, cfg Fig3Config) criticalworks.Calendars {
	cals := criticalworks.EmptyCalendars(env)
	for _, n := range env.Nodes() {
		count := int(cfg.BackgroundPerNode)
		if r.Float64() < cfg.BackgroundPerNode-float64(count) {
			count++
		}
		for k := 0; k < count; k++ {
			start := simtime.Time(r.Int64n(int64(cfg.BackgroundSpan)))
			dur := simtime.Time(r.Int64Between(int64(cfg.BackgroundDurLo), int64(cfg.BackgroundDurHi)))
			// Conflicting background windows are simply dropped.
			_ = cals[n.ID].Reserve(simtime.Interval{Start: start, End: start + dur}, resource.External)
		}
	}
	return cals
}

// fig3Run holds the per-strategy aggregates of one corpus pass.
type fig3Run struct {
	admissible map[strategy.Type]int
	collisions map[strategy.Type]*Counter
	total      int
}

// fig3WorkloadConfig translates the experiment config into workload
// overrides.
func fig3WorkloadConfig(cfg Fig3Config) workload.Config {
	wcfg := workload.Default(cfg.Seed)
	if cfg.DeadlineFactor > 0 {
		wcfg.DeadlineFactor = cfg.DeadlineFactor
	}
	if cfg.TransferHi > 0 {
		wcfg.TransferLo, wcfg.TransferHi = cfg.TransferLo, cfg.TransferHi
	}
	if cfg.MaxWidth > 0 {
		wcfg.MinWidth, wcfg.MaxWidth = cfg.MinWidth, cfg.MaxWidth
	}
	if cfg.MaxLayers > 0 {
		wcfg.MinLayers, wcfg.MaxLayers = cfg.MinLayers, cfg.MaxLayers
	}
	if cfg.MaxPipeline > 0 {
		wcfg.PipelineProb, wcfg.MaxPipeline = cfg.PipelineProb, cfg.MaxPipeline
	}
	return wcfg
}

// fig3Background returns the root source for per-job background snapshots.
func fig3Background(cfg Fig3Config) *rng.Source {
	return rng.New(cfg.Seed).Split(0xB6)
}

// fig3JobTally is one job's contribution to the corpus aggregates, indexed
// by position in fig3Strategies. Units fill tallies independently; the
// merge walks them in job order, so the aggregates are identical at any
// worker count.
type fig3JobTally struct {
	admissible [3]bool
	fast, slow [3]int
}

// runFig3 generates each job's strategy for every family against identical
// background snapshots and tallies admissibility and collision placement.
// The per-job builds fan out across cfg.Workers goroutines: each job's
// background snapshot comes from its own pre-split RNG stream, and the
// tallies are merged in job order after the pool drains.
func runFig3(cfg Fig3Config) (*fig3Run, error) {
	gen := workload.New(fig3WorkloadConfig(cfg))
	env := gen.Environment(1)
	streams := fig3Background(cfg).SplitN(cfg.Jobs)

	// MinCost reproduces the paper's economics: strategies drift to the
	// cheapest (slowest) nodes their deadline and data policy allow, which
	// is what shapes both the admissibility rates and the collision split.
	sgen := &strategy.Generator{Env: env, Objective: criticalworks.MinCost, Telemetry: cfg.Telemetry}

	tallies, err := parallel.Map(cfg.Workers, cfg.Jobs, func(i int) (fig3JobTally, error) {
		var tally fig3JobTally
		job := gen.Job(i)
		cals := loadedCalendars(env, streams[i], cfg)
		for ti, typ := range fig3Strategies {
			st, err := sgen.Generate(job, typ, cals, 0)
			if err != nil {
				return tally, fmt.Errorf("experiments: fig3 job %d type %v: %w", i, typ, err)
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
		collisions: make(map[strategy.Type]*Counter),
		total:      cfg.Jobs,
	}
	for _, typ := range fig3Strategies {
		run.collisions[typ] = NewCounter()
	}
	for _, tally := range tallies {
		for ti, typ := range fig3Strategies {
			if tally.admissible[ti] {
				run.admissible[typ]++
			}
			run.collisions[typ].Inc("fast", tally.fast[ti])
			run.collisions[typ].Inc("slow", tally.slow[ti])
		}
	}
	return run, nil
}

// Fig3a regenerates Fig. 3(a): the percentage of jobs with at least one
// admissible application-level schedule per strategy family (paper: S1
// 38%, S2 37%, S3 33%).
func Fig3a(cfg Fig3Config) (*Report, error) {
	run, err := runFig3(cfg)
	if err != nil {
		return nil, err
	}
	r := newReport("fig3a", "admissible application-level schedules (paper Fig. 3a: S1 38%, S2 37%, S3 33%)")
	r.addLine("%-6s %12s  (over %d jobs)", "type", "admissible", run.total)
	for _, typ := range fig3Strategies {
		share := float64(run.admissible[typ]) / float64(run.total)
		r.addLine("%-6s %12s", typ, Ratio(share))
		r.Values["admissible-"+typ.String()] = share
	}
	return r, nil
}

// Fig3b regenerates Fig. 3(b): where collisions between critical works
// land — fast versus slow nodes (paper: S1 32/68, S2 56/44, S3 74/26).
func Fig3b(cfg Fig3Config) (*Report, error) {
	run, err := runFig3(cfg)
	if err != nil {
		return nil, err
	}
	r := newReport("fig3b", "collision split across node speeds (paper Fig. 3b: S1 32/68, S2 56/44, S3 74/26)")
	r.addLine("%-6s %8s %8s %10s", "type", "fast", "slow", "collisions")
	for _, typ := range fig3Strategies {
		c := run.collisions[typ]
		r.addLine("%-6s %8s %8s %10d", typ,
			Ratio(c.Share("fast")), Ratio(c.Share("slow")), c.Total())
		r.Values["fast-"+typ.String()] = c.Share("fast")
		r.Values["slow-"+typ.String()] = c.Share("slow")
		r.Values["total-"+typ.String()] = float64(c.Total())
	}
	return r, nil
}
