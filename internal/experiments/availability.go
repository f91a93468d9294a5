package experiments

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/metasched"
	"repro/internal/strategy"
)

// availOutcome aggregates one (type, availability) run.
type availOutcome struct {
	missRate  float64
	meanTTL   float64
	fallbacks int
	reallocs  int
	stats     metasched.FaultStats
}

// runAvailability executes one VO run with the outage process tuned to
// the given availability. No background (external) load: the sweep
// isolates the fault model's effect. tracer may be nil.
func runAvailability(cfg Config, typ strategy.Type, avail float64, tracer metasched.Tracer) (*availOutcome, error) {
	var fcfg faults.Config
	if avail < 1 {
		mtbf, mttr := faults.ForAvailability(avail, cfg.MTTR)
		fcfg = faults.Config{
			MTBF:             mtbf,
			MTTR:             mttr,
			DomainOutageProb: 0.1,
			TaskFailRate:     cfg.TaskFailRate,
			MaxRetries:       cfg.MaxRetries,
			Seed:             cfg.Seed,
		}
	}
	vo, _, _, err := runFlow(cfg.Seed, cfg.Jobs, typ, metasched.Config{
		Faults:    fcfg,
		Tracer:    tracer,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}

	out := &availOutcome{stats: vo.FaultStats()}
	var ttl Series
	total, rejected := 0, 0
	for _, r := range vo.Results() {
		total++
		out.fallbacks += r.Fallbacks
		out.reallocs += r.Reallocations
		for _, t := range r.TTLs {
			ttl.AddInt(int64(t))
		}
		if r.State != metasched.StateCompleted {
			rejected++
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("experiments: availability %v/%v ran no jobs", typ, avail)
	}
	out.missRate = float64(rejected) / float64(total)
	out.meanTTL = ttl.Mean()
	return out, nil
}

// availability runs the fault-injection sweep (E12): QoS-miss rate and mean
// strategy time-to-live versus node availability, per strategy family
// S1–S3, one VO run per (family, cfg.Levels level) on the first
// availabilityMaxJobs jobs at most, with the same workload and fault seed at
// every level so only the outage intensity varies. As availability drops,
// the miss rate must rise (within noise) and plans live shorter — the
// quantitative cost of an unreliable environment that the
// supporting-schedule machinery absorbs.
func availability(cfg Config) (*Report, error) {
	cfg.Jobs = min(cfg.Jobs, availabilityMaxJobs)
	types := []strategy.Type{strategy.S1, strategy.S2, strategy.S3}
	r := newReport("availability",
		"QoS-miss rate and strategy TTL vs node availability (fault-injection sweep)")
	r.addLine("%-6s %7s %10s %10s %10s %9s %9s %9s %8s", "type", "avail",
		"miss-rate", "mean-ttl", "failures", "retries", "fallbk", "realloc", "outages")

	// The sweep grid is one independent VO run per (family, availability)
	// cell; the cells fan out across the pool and the report rows (and
	// traces) are emitted in grid order afterwards.
	type cell struct {
		typ   strategy.Type
		avail float64
	}
	var grid []cell
	for _, typ := range types {
		for _, avail := range cfg.Levels {
			grid = append(grid, cell{typ: typ, avail: avail})
		}
	}
	outs, err := mapCells(cfg.Workers, len(grid), cfg.Trace, func(i int, tracer metasched.Tracer) (*availOutcome, error) {
		return runAvailability(cfg, grid[i].typ, grid[i].avail, tracer)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range grid {
		o := outs[i]
		r.addLine("%-6s %7.2f %10s %10.1f %10d %9d %9d %9d %8d",
			c.typ, c.avail, ratio(o.missRate), o.meanTTL,
			o.stats.TaskFailures, o.stats.Retries,
			o.fallbacks, o.reallocs, o.stats.NodeOutages)
		key := fmt.Sprintf("%s-%.2f", c.typ, c.avail)
		r.Values["miss-"+key] = o.missRate
		r.Values["ttl-"+key] = o.meanTTL
		r.Values["failures-"+key] = float64(o.stats.TaskFailures)
		r.Values["retries-"+key] = float64(o.stats.Retries)
		r.Values["reallocs-"+key] = float64(o.reallocs)
	}
	return r, nil
}
