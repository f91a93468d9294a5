// Command gridload is the open-loop load generator for live schedulers:
// it offers a synthetic job flow from internal/workload to one or more
// gridd or gridfront daemons over HTTP at configurable arrival rates —
// Poisson, bursty (Markov-modulated on/off) and diurnal (sinusoidal)
// processes, all seeded and reproducible — and writes a JSON report.
//
// Submissions are paced on the wall clock (-tick per model tick) and
// round-robin across the -target fleet. gridload measures client-observed
// end-to-end latency, 429/503 rates and per-target Retry-After-honoring
// backoff (an overloaded target is skipped until its hint expires while
// the rest keep receiving load), and scrapes every target's /metrics
// before and after the run: the server-side counters are their difference,
// the aggregate admission-latency percentiles come from the histogram.
//
// Usage:
//
//	gridload -target http://localhost:8080 -jobs 200 -tick 5ms
//	gridload -target http://localhost:8081 -target http://localhost:8082 -jobs 500
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

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

// options collects the parsed flags.
type options struct {
	targets    []string
	seed       uint64
	jobs       int
	arrival    workload.ProcessKind
	spec       workload.ArrivalSpec
	mean       float64
	strategy   string
	priorities int
	tick       time.Duration
	honorRetry bool
	wait       time.Duration
	out        string
}

func main() {
	var targets targetList
	var (
		seed       = flag.Uint64("seed", 1, "seed for the job corpus and arrival process")
		jobs       = flag.Int("jobs", 500, "number of jobs to offer")
		arrival    = flag.String("arrival", "poisson", "arrival process: poisson, bursty or diurnal")
		mean       = flag.Float64("mean", 12, "mean inter-arrival time in model ticks (long-run, all processes)")
		onMean     = flag.Float64("on-mean", 0, "bursty: mean on-state sojourn in ticks (0 = 5×mean)")
		offMean    = flag.Float64("off-mean", 0, "bursty: mean off-state sojourn in ticks (0 = 5×mean)")
		period     = flag.Float64("period", 0, "diurnal: sinusoid period in ticks (0 = 40×mean)")
		amplitude  = flag.Float64("amplitude", 0, "diurnal: relative amplitude in [0,1) (0 = 0.8)")
		strategy   = flag.String("strategy", "S1", "strategy family for every job (S1, S2, S3, MS1)")
		priorities = flag.Int("priorities", 3, "cycle submissions through this many priority levels so overload shedding is exercised")
		tick       = flag.Duration("tick", 5*time.Millisecond, "wall-clock duration of one model tick (arrival pacing)")
		honorRetry = flag.Bool("honor-retry-after", true, "back off and retry per the Retry-After hint on 429/503")
		wait       = flag.Duration("wait", 60*time.Second, "how long to wait for accepted jobs to reach a terminal state")
		out        = flag.String("out", "BENCH_scale.json", "where to write the report")
	)
	flag.Var(&targets, "target", "gridd or gridfront base URL (repeatable: submissions round-robin across targets)")
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
		targets: targets, seed: *seed, jobs: *jobs,
		arrival: kind,
		spec: workload.ArrivalSpec{
			Kind: kind, OnMean: *onMean, OffMean: *offMean,
			Period: *period, Amplitude: *amplitude,
		},
		mean: *mean, strategy: *strategy, priorities: *priorities,
		tick: *tick, honorRetry: *honorRetry, wait: *wait, out: *out,
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridload: %v\n", err)
		os.Exit(1)
	}
	if err := rep.write(o.out); err != nil {
		fmt.Fprintf(os.Stderr, "gridload: write %s: %v\n", o.out, err)
		os.Exit(1)
	}
	c, w := rep.Counts, rep.Wall
	fmt.Printf("gridload %s: %d offered — accepted=%d completed=%d shed=%d 429=%d drained=%d\n",
		rep.Config.Arrival, c.Submitted, c.Accepted, c.Completed, c.Shed, c.Client429, c.Drained)
	fmt.Printf("  goodput %.2f jobs/ktick (model), %.1f jobs/s (wall %.2fs); admission p50=%.2gs p99=%.2gs; client p99=%.2gs\n",
		c.GoodputPerKTicks, w.GoodputJobsPerSec, w.ElapsedSeconds,
		w.AdmissionP50, w.AdmissionP99, w.ClientP99)
	fmt.Printf("  wrote %s\n", o.out)
}

// report is the JSON document one run writes.
type report struct {
	Config runConfig `json:"config"`
	Counts counts    `json:"counts"`
	Wall   wallClock `json:"wallClock"`
}

// runConfig echoes the flow that produced the run.
type runConfig struct {
	Arrival          string  `json:"arrival"`
	Strategy         string  `json:"strategy"`
	Seed             uint64  `json:"seed"`
	Jobs             int     `json:"jobs"`
	Priorities       int     `json:"priorities"`
	MeanInterarrival float64 `json:"meanInterarrival"`
}

// counts is what the run decided: the fleet's admission counters over the
// run, what the client was told, and the accepted jobs' terminal states.
type counts struct {
	Submitted  uint64 `json:"submitted"`
	Accepted   uint64 `json:"accepted"`
	Completed  uint64 `json:"completed"`
	Rejected   uint64 `json:"rejected"`
	Shed       uint64 `json:"shed"`
	Infeasible uint64 `json:"infeasible"`
	Overloaded uint64 `json:"overloaded"`
	Drained    uint64 `json:"drained"`

	// Client-observed admission outcomes, by HTTP status.
	ClientAccepted int `json:"clientAccepted"`
	Client429      int `json:"client429"`
	Client503      int `json:"client503"`
	// RetryAfterViolations counts backpressure rejections whose retry
	// hint was missing or non-positive; the contract keeps this at 0.
	RetryAfterViolations int `json:"retryAfterViolations"`

	// TerminalByState tallies the accepted jobs' terminal states.
	TerminalByState map[string]uint64 `json:"terminalByState"`

	QueueHighWater int `json:"queueHighWater"`
	// EngineTicks is the model time the fleet's engines advanced during
	// the run.
	EngineTicks int64 `json:"engineTicks"`
	// GoodputPerKTicks is completed jobs per 1000 of those ticks.
	GoodputPerKTicks float64 `json:"goodputPerKTicks"`
}

// wallClock is the host-dependent section.
type wallClock struct {
	ElapsedSeconds    float64 `json:"elapsedSeconds"`
	GoodputJobsPerSec float64 `json:"goodputJobsPerSec"`

	// Admission latency (time in the queue) percentiles in seconds,
	// estimated from the scraped histogram's fixed buckets.
	AdmissionP50  float64 `json:"admissionP50"`
	AdmissionP95  float64 `json:"admissionP95"`
	AdmissionP99  float64 `json:"admissionP99"`
	AdmissionP999 float64 `json:"admissionP999"`

	// Client-observed end-to-end submit latency percentiles in seconds
	// (exact, from the raw sample set).
	ClientP50  float64 `json:"clientP50"`
	ClientP95  float64 `json:"clientP95"`
	ClientP99  float64 `json:"clientP99"`
	ClientP999 float64 `json:"clientP999"`

	// Backoff behavior when honoring Retry-After.
	BackoffRetries int     `json:"backoffRetries"`
	BackoffSeconds float64 `json:"backoffSeconds"`
}

// write marshals the report to path (indented, trailing newline).
func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// percentile returns the exact q-th percentile (0 ≤ q ≤ 1) of samples by
// sorting a copy; 0 when the sample set is empty. The nearest-rank method
// keeps it deterministic for a fixed sample multiset.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	idx := int(q*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// finiteOrZero maps an empty-histogram NaN (or an infinite estimate) to 0
// so the report always marshals.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
