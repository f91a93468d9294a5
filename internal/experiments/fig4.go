package experiments

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/criticalworks"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// fig4Outcome aggregates one VO run.
type fig4Outcome struct {
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

// fig4Workload is the job-flow corpus every VO experiment runs. Its
// deadlines are looser than the Fig. 3 study's: the job-flow experiment
// needs strategies with several admissible supporting schedules so that
// eviction → fallback → completion actually happens; jobs are also smaller
// (fewer pipelines, narrower and shallower) and arrive more slowly, keeping
// the VO out of permanent overload.
func fig4Workload(seed uint64) workload.Config {
	cfg := workload.Default(seed)
	cfg.DeadlineFactor = 1.8
	cfg.TransferLo, cfg.TransferHi = 2, 8
	cfg.PipelineProb, cfg.MaxPipeline = 0.6, 3
	cfg.MinWidth, cfg.MaxWidth = 2, 3
	cfg.MinLayers, cfg.MaxLayers = 3, 4
	cfg.MeanInterarrival = 12
	return cfg
}

// Every VO run spreads the grid over flowDomains job-manager domains, and
// its external load and faults keep coming until flowTail ticks after the
// last arrival.
const (
	flowDomains = 2
	flowTail    = 200
)

// runFlow runs the first jobs jobs of the Fig. 4 flow, every one under
// family typ, through a fresh VO — metascheduler → job managers → local
// calendars — to the end. mc holds what sets the run apart (external load,
// faults, a tracer, the registry); runFlow gives its external load and
// faults the flow's horizon and plans at MinCost from seed. It returns the
// VO, its environment and the model time the run ended at.
func runFlow(seed uint64, jobs int, typ strategy.Type, mc metasched.Config) (*metasched.VO, *resource.Environment, simtime.Time, error) {
	if err := checkJobs(jobs); err != nil {
		return nil, nil, 0, err
	}
	gen := workload.New(fig4Workload(seed))
	env := gen.Environment(flowDomains)
	engine := sim.New()
	flow := gen.Flow(0, jobs, 0)
	until := flow[len(flow)-1].At + flowTail
	mc.ExternalUntil, mc.Faults.Until = until, until
	mc.Objective, mc.Seed = criticalworks.MinCost, seed
	vo := metasched.NewVO(engine, env, mc)
	for _, a := range flow {
		vo.Submit(a.Job, typ, a.At)
	}
	return vo, env, engine.Run(), nil
}

// mapCells runs n independent VO cells across workers goroutines and
// returns their results in cell order. When trace is set, each cell writes
// its JSONL VO trace into a private buffer, and the buffers are flushed to
// trace in cell order after the pool drains, so the stream is identical at
// any worker count.
func mapCells[T any](workers, n int, trace io.Writer, cell func(i int, tracer metasched.Tracer) (T, error)) ([]T, error) {
	traces := make([]bytes.Buffer, n)
	outs, err := workload.MapIndexed(workers, n, func(i int) (T, error) {
		var tracer metasched.Tracer
		if trace != nil {
			tracer = metasched.NewJSONLTracer(&traces[i])
		}
		return cell(i, tracer)
	})
	if err != nil || trace == nil {
		return outs, err
	}
	for i := range traces {
		if _, err := trace.Write(traces[i].Bytes()); err != nil {
			return nil, fmt.Errorf("experiments: trace: %w", err)
		}
	}
	return outs, nil
}

// The external (background) load of the Fig. 4 runs: a reservation attempt
// every fig4ExtMeanGap ticks on average, starting fig4ExtLead ticks ahead and
// lasting fig4ExtDurLo–Hi ticks.
const (
	fig4ExtMeanGap             = 5.0
	fig4ExtLead                = 8
	fig4ExtDurLo, fig4ExtDurHi = 10, 30
)

// runFig4Type runs the Fig. 4 flow under external load for one strategy
// family. tracer may be nil.
func runFig4Type(cfg Config, typ strategy.Type, tracer metasched.Tracer) (*fig4Outcome, error) {
	vo, _, end, err := runFlow(cfg.Seed, cfg.Jobs, typ, metasched.Config{
		ExternalMeanGap: fig4ExtMeanGap,
		ExternalLead:    fig4ExtLead,
		ExternalDurLo:   fig4ExtDurLo,
		ExternalDurHi:   fig4ExtDurHi,
		Tracer:          tracer,
		Telemetry:       cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}

	out := &fig4Outcome{load: vo.NodeLoad(simtime.Interval{Start: 0, End: end + 1})}
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
		cf.Add(r.Cost)
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

// runFig4 is the coordinated job-flow study of Fig. 4: one VO run per
// family over identical workload and background-event streams, each an
// independent cell, on the first fig4MaxJobs jobs at most.
func runFig4(cfg Config, types []strategy.Type) (map[strategy.Type]*fig4Outcome, error) {
	cfg.Jobs = min(cfg.Jobs, fig4MaxJobs)
	outs, err := mapCells(cfg.Workers, len(types), cfg.Trace, func(i int, tracer metasched.Tracer) (*fig4Outcome, error) {
		return runFig4Type(cfg, types[i], tracer)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[strategy.Type]*fig4Outcome, len(types))
	for i, typ := range types {
		out[typ] = outs[i]
	}
	return out, nil
}

// fig4a regenerates Fig. 4(a): average node load level per performance
// group under coordinated scheduling (paper: S2 balances the groups, S1
// occupies the slow nodes, S3 the fastest ones).
func fig4a(cfg Config) (*Report, error) {
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
			ratio(o.load[resource.GroupFast]),
			ratio(o.load[resource.GroupMedium]),
			ratio(o.load[resource.GroupSlow]),
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

// fig4bcCells runs the VO cells that Fig. 4(b) and Fig. 4(c) both read, or
// returns the ones an earlier row run from the same Config ran (memo.get),
// so that gridsim runs them once when both rows are asked for. A Config with
// a trace writer runs them for every row, so that each row's trace stays
// whole.
func fig4bcCells(cfg Config) (map[strategy.Type]*fig4Outcome, error) {
	run := func(cfg Config) (map[strategy.Type]*fig4Outcome, error) { return runFig4(cfg, fig4bcTypes) }
	if cfg.Trace != nil {
		return run(cfg)
	}
	return cfg.fig4bc.get(cfg, run)
}

// fig4b regenerates Fig. 4(b): relative job completion cost and relative
// task execution time (paper: the lowest-cost strategies are the slowest
// ones like S3; MS1's tasks run longer than S2's).
func fig4b(cfg Config) (*Report, error) {
	outs, err := fig4bcCells(cfg)
	if err != nil {
		return nil, err
	}
	cost := map[string]float64{}
	task := map[string]float64{}
	for typ, o := range outs {
		cost[typ.String()] = o.meanCF
		task[typ.String()] = o.meanTask
	}
	relCost, relTask := normalize(cost), normalize(task)
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

// fig4c regenerates Fig. 4(c): relative strategy time-to-live and start
// deviation ratio (paper: slow strategies like S3 are the most persistent;
// fast accurate ones like S2 the least).
func fig4c(cfg Config) (*Report, error) {
	outs, err := fig4bcCells(cfg)
	if err != nil {
		return nil, err
	}
	ttl := map[string]float64{}
	dev := map[string]float64{}
	for typ, o := range outs {
		ttl[typ.String()] = o.meanTTL
		dev[typ.String()] = o.meanDevRat
	}
	relTTL, relDev := normalize(ttl), normalize(dev)
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
