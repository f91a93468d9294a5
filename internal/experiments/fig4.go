package experiments

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/criticalworks"
	"repro/internal/metasched"
	"repro/internal/parallel"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Fig4Config parameterizes the coordinated job-flow study of Fig. 4: one
// virtual organization run per strategy family over identical workload and
// background-event streams.
type Fig4Config struct {
	Seed    uint64
	Jobs    int
	Domains int

	// External (background) load injection.
	ExternalMeanGap              float64
	ExternalLead                 simtime.Time
	ExternalDurLo, ExternalDurHi simtime.Time
	ExternalUntil                simtime.Time

	// Workers bounds the pool running the per-family VO cells; ≤ 0 means
	// one worker per CPU, 1 forces the sequential path. Each cell owns its engine,
	// environment and calendars, so any worker count produces byte-identical
	// reports and traces.
	Workers int
	// Trace, when set, receives every cell's JSONL VO trace. Cells write
	// into private buffers while running; the buffers are flushed to Trace
	// in cell order after the pool drains, so the stream is identical at
	// any worker count.
	Trace io.Writer
	// Telemetry, when non-nil, receives the whole hierarchy's runtime
	// metrics (grid_metasched_*, grid_strategy_*, grid_criticalworks_*)
	// from every cell. Observe-only: reports and traces stay byte-identical.
	Telemetry *telemetry.Registry
}

// DefaultFig4 returns the calibrated configuration.
func DefaultFig4(seed uint64, jobs int) Fig4Config {
	return Fig4Config{
		Seed:            seed,
		Jobs:            jobs,
		Domains:         2,
		ExternalMeanGap: 5,
		ExternalLead:    8,
		ExternalDurLo:   10,
		ExternalDurHi:   30,
		ExternalUntil:   0, // derived from the flow length when zero
	}
}

// fig4Outcome aggregates one VO run.
type fig4Outcome struct {
	typ        strategy.Type
	load       map[resource.Group]float64
	meanCF     float64
	meanTask   float64
	meanTTL    float64
	meanDevRat float64
	completed  int
	rejected   int
	fallbacks  int
	reallocs   int
}

// fig4Workload mirrors the fig3 calibration so the two studies share one
// corpus shape.
func fig4Workload(seed uint64) workload.Config {
	cfg := workload.Default(seed)
	// Looser deadlines than the Fig. 3 study: the job-flow experiment
	// needs strategies with several admissible supporting schedules so
	// that eviction → fallback → completion actually happens; jobs are
	// also smaller and arrive more slowly, keeping the VO out of
	// permanent overload.
	cfg.DeadlineFactor = 1.8
	cfg.TransferLo, cfg.TransferHi = 2, 8
	cfg.PipelineProb, cfg.MaxPipeline = 0.6, 3
	cfg.MinWidth, cfg.MaxWidth = 2, 3
	cfg.MinLayers, cfg.MaxLayers = 3, 4
	cfg.MeanInterarrival = 12
	return cfg
}

// runFig4Type runs the full hierarchy (metascheduler → job managers →
// local calendars) for one strategy family. tracer may be nil.
func runFig4Type(cfg Fig4Config, typ strategy.Type, tracer metasched.Tracer) (*fig4Outcome, error) {
	gen := workload.New(fig4Workload(cfg.Seed))
	env := gen.Environment(cfg.Domains)
	engine := sim.New()

	flow := gen.Flow(0, cfg.Jobs, 0)
	until := cfg.ExternalUntil
	if until == 0 && len(flow) > 0 {
		until = flow[len(flow)-1].At + 200
	}
	vo := metasched.NewVO(engine, env, metasched.Config{
		ExternalMeanGap: cfg.ExternalMeanGap,
		ExternalLead:    cfg.ExternalLead,
		ExternalDurLo:   cfg.ExternalDurLo,
		ExternalDurHi:   cfg.ExternalDurHi,
		ExternalUntil:   until,
		Objective:       criticalworks.MinCost,
		Seed:            cfg.Seed,
		Tracer:          tracer,
		Telemetry:       cfg.Telemetry,
	})
	for _, a := range flow {
		vo.Submit(a.Job, typ, a.At)
	}
	end := engine.Run()

	out := &fig4Outcome{typ: typ, load: vo.NodeLoad(simtime.Interval{Start: 0, End: end + 1})}
	var cf, task, ttl, dev Series
	for _, r := range vo.Results() {
		out.fallbacks += r.Fallbacks
		out.reallocs += r.Reallocations
		// Every activated plan's time-to-live counts, whether the job
		// ultimately completed or not — the paper's TTL is a property of
		// the schedules, not of the job outcome.
		for _, t := range r.TTLs {
			ttl.AddInt(int64(t))
		}
		if r.State != metasched.StateCompleted {
			out.rejected++
			continue
		}
		out.completed++
		cf.AddInt(r.BareCF)
		task.Add(r.MeanTaskTime)
		if rt := r.RunTime(); rt > 0 {
			dev.Add(float64(r.StartDeviation()) / float64(rt))
		}
	}
	if out.completed == 0 {
		return nil, fmt.Errorf("experiments: fig4 %v completed no jobs", typ)
	}
	out.meanCF = cf.Mean()
	out.meanTask = task.Mean()
	out.meanTTL = ttl.Mean()
	out.meanDevRat = dev.Mean()
	return out, nil
}

// runFig4 executes one VO run per family. The families are independent
// cells (each owns its engine, environment and calendars), so they fan out
// across the pool; traces buffer per cell and flush in family order.
func runFig4(cfg Fig4Config, types []strategy.Type) (map[strategy.Type]*fig4Outcome, error) {
	traces := make([]bytes.Buffer, len(types))
	outs, err := parallel.Map(cfg.Workers, len(types), func(i int) (*fig4Outcome, error) {
		var tracer metasched.Tracer
		if cfg.Trace != nil {
			tracer = metasched.NewJSONLTracer(&traces[i])
		}
		return runFig4Type(cfg, types[i], tracer)
	})
	if err != nil {
		return nil, err
	}
	if cfg.Trace != nil {
		for i := range traces {
			if _, err := cfg.Trace.Write(traces[i].Bytes()); err != nil {
				return nil, fmt.Errorf("experiments: fig4 trace: %w", err)
			}
		}
	}
	out := make(map[strategy.Type]*fig4Outcome, len(types))
	for i, typ := range types {
		out[typ] = outs[i]
	}
	return out, nil
}

// Fig4a regenerates Fig. 4(a): average node load level per performance
// group under coordinated scheduling (paper: S2 balances the groups, S1
// occupies the slow nodes, S3 the fastest ones).
func Fig4a(cfg Fig4Config) (*Report, error) {
	types := []strategy.Type{strategy.S1, strategy.S2, strategy.S3}
	outs, err := runFig4(cfg, types)
	if err != nil {
		return nil, err
	}
	r := newReport("fig4a", "node load level by performance group (paper Fig. 4a: S1→slow, S2 balanced, S3→fast)")
	r.addLine("%-6s %8s %8s %8s %10s %9s", "type", "fast", "medium", "slow", "completed", "rejected")
	for _, typ := range types {
		o := outs[typ]
		r.addLine("%-6s %8s %8s %8s %10d %9d", typ,
			Ratio(o.load[resource.GroupFast]),
			Ratio(o.load[resource.GroupMedium]),
			Ratio(o.load[resource.GroupSlow]),
			o.completed, o.rejected)
		r.Values["fast-"+typ.String()] = o.load[resource.GroupFast]
		r.Values["medium-"+typ.String()] = o.load[resource.GroupMedium]
		r.Values["slow-"+typ.String()] = o.load[resource.GroupSlow]
		r.Values["completed-"+typ.String()] = float64(o.completed)
	}
	return r, nil
}

// fig4bcTypes are the families of Fig. 4(b,c).
var fig4bcTypes = []strategy.Type{strategy.MS1, strategy.S2, strategy.S3}

// Fig4b regenerates Fig. 4(b): relative job completion cost and relative
// task execution time (paper: the lowest-cost strategies are the slowest
// ones like S3; MS1's tasks run longer than S2's).
func Fig4b(cfg Fig4Config) (*Report, error) {
	outs, err := runFig4(cfg, fig4bcTypes)
	if err != nil {
		return nil, err
	}
	cost := map[string]float64{}
	task := map[string]float64{}
	for typ, o := range outs {
		cost[typ.String()] = o.meanCF
		task[typ.String()] = o.meanTask
	}
	relCost, relTask := Normalize(cost), Normalize(task)
	r := newReport("fig4b", "relative job cost and task execution time (paper Fig. 4b: S3 cheapest and slowest)")
	r.addLine("%-6s %10s %10s %12s %12s", "type", "rel-cost", "rel-task", "mean-CF", "mean-task")
	for _, typ := range fig4bcTypes {
		name := typ.String()
		r.addLine("%-6s %10.2f %10.2f %12.1f %12.1f", typ, relCost[name], relTask[name],
			outs[typ].meanCF, outs[typ].meanTask)
		r.Values["cost-"+name] = relCost[name]
		r.Values["task-"+name] = relTask[name]
	}
	return r, nil
}

// Fig4c regenerates Fig. 4(c): relative strategy time-to-live and start
// deviation ratio (paper: slow strategies like S3 are the most persistent;
// fast accurate ones like S2 the least).
func Fig4c(cfg Fig4Config) (*Report, error) {
	outs, err := runFig4(cfg, fig4bcTypes)
	if err != nil {
		return nil, err
	}
	ttl := map[string]float64{}
	dev := map[string]float64{}
	for typ, o := range outs {
		ttl[typ.String()] = o.meanTTL
		dev[typ.String()] = o.meanDevRat
	}
	relTTL, relDev := Normalize(ttl), Normalize(dev)
	r := newReport("fig4c", "relative time-to-live and start deviation (paper Fig. 4c)")
	r.addLine("%-6s %10s %10s %12s %14s %10s %9s", "type", "rel-ttl", "rel-dev", "mean-ttl", "mean-dev-ratio", "fallbacks", "reallocs")
	for _, typ := range fig4bcTypes {
		name := typ.String()
		o := outs[typ]
		r.addLine("%-6s %10.2f %10.2f %12.1f %14.3f %10d %9d", typ, relTTL[name], relDev[name],
			o.meanTTL, o.meanDevRat, o.fallbacks, o.reallocs)
		r.Values["ttl-"+name] = relTTL[name]
		r.Values["dev-"+name] = relDev[name]
	}
	return r, nil
}
