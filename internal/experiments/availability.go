package experiments

import (
	"fmt"
	"io"

	"repro/internal/faults"
	"repro/internal/metasched"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// AvailabilityConfig parameterizes the fault-injection sweep (E12): one VO
// run per (strategy family, node availability level), the same workload
// and fault seed at every level so only the outage intensity varies.
type AvailabilityConfig struct {
	Seed uint64
	Jobs int

	// Levels are the steady-state node availabilities to sweep, from 1.0
	// (faults off, the seed baseline) downward.
	Levels []float64
	// MTTR is the mean outage duration; MTBF is derived per level as
	// MTTR·a/(1−a).
	MTTR float64
	// TaskFailRate and MaxRetries tune the mid-run failure ladder.
	TaskFailRate float64
	MaxRetries   int

	// Workers bounds the pool running the (family × availability) cells;
	// ≤ 0 means one worker per CPU, 1 forces the sequential path. Cells
	// are independent VO runs, so any worker count produces byte-identical
	// reports and traces.
	Workers int
	// Trace, when set, receives every cell's JSONL VO trace, flushed in
	// cell (row) order after the pool drains.
	Trace io.Writer
	// Telemetry, when non-nil, receives the hierarchy's runtime metrics
	// from every cell. Observe-only: reports and traces stay byte-identical.
	Telemetry *telemetry.Registry
}

// DefaultAvailability returns the calibrated sweep configuration.
func DefaultAvailability(seed uint64, jobs int) AvailabilityConfig {
	return AvailabilityConfig{
		Seed:         seed,
		Jobs:         jobs,
		Levels:       []float64{1.0, 0.98, 0.95, 0.9, 0.8},
		MTTR:         20,
		TaskFailRate: 0.05,
		MaxRetries:   2,
	}
}

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
func runAvailability(cfg AvailabilityConfig, typ strategy.Type, avail float64, tracer metasched.Tracer) (*availOutcome, error) {
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

// Availability runs the fault-injection sweep: QoS-miss rate and mean
// strategy time-to-live versus node availability, per strategy family
// S1–S3. As availability drops, the miss rate must rise (within noise)
// and plans live shorter — the quantitative cost of an unreliable
// environment that the supporting-schedule machinery absorbs.
func Availability(cfg AvailabilityConfig) (*Report, error) {
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
			c.typ, c.avail, Ratio(o.missRate), o.meanTTL,
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
