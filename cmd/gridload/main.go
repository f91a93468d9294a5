// Command gridload is the million-job scale harness: an open-loop load
// generator that drives a gridd scheduler with synthetic job flows from
// internal/workload at configurable arrival rates — Poisson, bursty
// (Markov-modulated on/off) and diurnal (sinusoidal) processes, all
// seeded and reproducible — and emits a BENCH_scale.json artifact
// (internal/scalereport) that cmd/scalecheck diffs against a committed
// baseline in CI.
//
// Two modes:
//
//   - -mode inprocess (default) builds the service in the same process
//     and drives it deterministically in manual mode: arrivals are
//     submitted in bursts of -burst, then -proc jobs are scheduled,
//     emulating an offered:served ratio of burst:proc. Everything in the
//     report's "deterministic" section is a pure function of the seed
//     and flags — two runs produce identical values — while wall-clock
//     latencies land in the "wallClock" section. The run ends with a
//     Drain while the queue is still loaded, so drain-under-load
//     behavior is part of every measurement.
//   - -mode http drives real daemons over the wire at one or more
//     -target URLs (gridd or gridfront; repeat the flag to round-robin
//     submissions across a fleet), pacing submissions on the wall clock
//     (-tick per model tick), measuring client-observed end-to-end
//     latency, 429/503 rates and per-target Retry-After-honoring backoff
//     (an overloaded target is skipped until its hint expires while the
//     rest keep receiving load), then scraping every target's /metrics
//     for the aggregate admission-latency percentiles.
//
// Usage:
//
//	gridload -seed 1 -jobs 500 -arrival bursty -out BENCH_scale.json
//	gridload -mode http -target http://localhost:8080 -jobs 200 -tick 5ms
//	gridload -mode http -target http://localhost:8081 -target http://localhost:8082 -jobs 500
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/scalereport"
	"repro/internal/workload"
)

// targetList collects repeated -target flags in order.
type targetList []string

func (t *targetList) String() string { return strings.Join(*t, ",") }

func (t *targetList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty target URL")
	}
	*t = append(*t, v)
	return nil
}

// options collects the parsed flags; run dispatches on mode.
type options struct {
	mode       string
	targets    []string
	seed       uint64
	jobs       int
	arrival    workload.ProcessKind
	spec       workload.ArrivalSpec
	mean       float64
	strategy   string
	priorities int
	domains    int
	queue      int
	burst      int
	proc       int
	placers    int
	tick       time.Duration
	honorRetry bool
	wait       time.Duration
	out        string
}

func main() {
	var targets targetList
	var (
		mode       = flag.String("mode", "inprocess", "inprocess (deterministic, manual-mode service) or http (drive a live daemon)")
		seed       = flag.Uint64("seed", 1, "seed for the environment, job corpus and arrival process")
		jobs       = flag.Int("jobs", 500, "number of jobs to offer")
		arrival    = flag.String("arrival", "poisson", "arrival process: poisson, bursty or diurnal")
		mean       = flag.Float64("mean", 12, "mean inter-arrival time in model ticks (long-run, all processes)")
		onMean     = flag.Float64("on-mean", 0, "bursty: mean on-state sojourn in ticks (0 = 5×mean)")
		offMean    = flag.Float64("off-mean", 0, "bursty: mean off-state sojourn in ticks (0 = 5×mean)")
		period     = flag.Float64("period", 0, "diurnal: sinusoid period in ticks (0 = 40×mean)")
		amplitude  = flag.Float64("amplitude", 0, "diurnal: relative amplitude in [0,1) (0 = 0.8)")
		strategy   = flag.String("strategy", "S1", "strategy family for every job (S1, S2, S3, MS1)")
		priorities = flag.Int("priorities", 3, "cycle submissions through this many priority levels so overload shedding is exercised")
		domains    = flag.Int("domains", 2, "domain count of the generated environment")
		queue      = flag.Int("queue", 64, "admission queue bound")
		burst      = flag.Int("burst", 16, "inprocess: arrivals submitted between scheduling steps")
		proc       = flag.Int("proc", 12, "inprocess: jobs scheduled per step (proc < burst builds overload)")
		placers    = flag.Int("placers", 0, "inprocess: jobs per arrival batch (≤1 = one job per scheduling step)")
		tick       = flag.Duration("tick", 5*time.Millisecond, "http: wall-clock duration of one model tick (arrival pacing)")
		honorRetry = flag.Bool("honor-retry-after", true, "http: back off and retry per the Retry-After hint on 429/503")
		wait       = flag.Duration("wait", 60*time.Second, "http: how long to wait for accepted jobs to reach a terminal state")
		out        = flag.String("out", "BENCH_scale.json", "where to write the report artifact")
	)
	flag.Var(&targets, "target", "gridd or gridfront base URL for -mode http (repeatable: submissions round-robin across targets)")
	flag.Parse()
	if len(targets) == 0 {
		targets = targetList{"http://localhost:8080"}
	}

	kind, err := workload.ParseProcess(*arrival)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridload: %v\n", err)
		os.Exit(2)
	}
	o := options{
		mode: *mode, targets: targets, seed: *seed, jobs: *jobs,
		arrival: kind,
		spec: workload.ArrivalSpec{
			Kind: kind, OnMean: *onMean, OffMean: *offMean,
			Period: *period, Amplitude: *amplitude,
		},
		mean: *mean, strategy: *strategy, priorities: *priorities,
		domains: *domains, queue: *queue, burst: *burst, proc: *proc,
		placers: *placers, tick: *tick, honorRetry: *honorRetry,
		wait: *wait, out: *out,
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridload: %v\n", err)
		os.Exit(1)
	}
	if err := rep.Write(o.out); err != nil {
		fmt.Fprintf(os.Stderr, "gridload: write %s: %v\n", o.out, err)
		os.Exit(1)
	}
	d, w := rep.Deterministic, rep.Wall
	fmt.Printf("gridload %s/%s: %d offered — accepted=%d completed=%d shed=%d 429=%d drained=%d\n",
		rep.Config.Mode, rep.Config.Arrival, d.Submitted,
		d.Accepted, d.Completed, d.Shed, d.Client429, d.Drained)
	fmt.Printf("  goodput %.2f jobs/ktick (model), %.1f jobs/s (wall %.2fs); admission p50=%.2gs p99=%.2gs; client p99=%.2gs\n",
		d.GoodputPerKTicks, w.GoodputJobsPerSec, w.ElapsedSeconds,
		w.AdmissionP50, w.AdmissionP99, w.ClientP99)
	fmt.Printf("  wrote %s\n", o.out)
}

// run executes one load scenario and assembles the report.
func run(o options) (*scalereport.Report, error) {
	if o.jobs <= 0 {
		return nil, fmt.Errorf("-jobs must be positive")
	}
	if o.priorities < 1 {
		o.priorities = 1
	}
	if o.burst < 1 {
		o.burst = 1
	}
	if o.proc < 0 {
		o.proc = 0
	}
	switch o.mode {
	case "inprocess":
		return runInProcess(o)
	case "http":
		return runHTTP(o)
	default:
		return nil, fmt.Errorf("unknown -mode %q (want inprocess or http)", o.mode)
	}
}

// workloadConfig derives the generator config from the options.
func workloadConfig(o options) workload.Config {
	cfg := workload.Default(o.seed)
	if o.mean > 0 {
		cfg.MeanInterarrival = o.mean
	}
	return cfg
}

// runConfig echoes the scenario shape into the report.
func runConfig(o options) scalereport.RunConfig {
	return scalereport.RunConfig{
		Mode: o.mode, Arrival: o.arrival.String(), Strategy: o.strategy,
		Seed: o.seed, Jobs: o.jobs, QueueCap: o.queue, Domains: o.domains,
		Burst: o.burst, Proc: o.proc, Priorities: o.priorities,
		MeanInterarrival: workloadConfig(o).MeanInterarrival,
		Placers:          o.placers,
	}
}
