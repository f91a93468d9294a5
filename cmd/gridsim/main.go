// Command gridsim regenerates the paper's evaluation artifacts: every
// figure of Toporkov (PaCT 2009) plus the §5 policy claims and two design
// ablations. See EXPERIMENTS.md for the experiment index and the
// paper-vs-measured record.
//
// Usage:
//
//	gridsim -exp all                 # run everything at default scale
//	gridsim -exp fig3a -jobs 12000   # the paper's full corpus size
//	gridsim -exp fig4c -seed 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (comma-separated), or all; see -list")
		jobs    = flag.Int("jobs", 1000, "corpus size for the statistical experiments (the paper used >12000 for fig3)")
		seed    = flag.Uint64("seed", 1, "deterministic seed")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for independent units (results are byte-identical at any value)")
		list    = flag.Bool("list", false, "list the experiment ids and what they regenerate")

		// Fault-injection knobs for the availability sweep (E12).
		mtbf       = flag.Float64("mtbf", 0, "mean time between node failures; overrides the sweep's availability levels when set (requires -mttr)")
		mttr       = flag.Float64("mttr", 20, "mean outage duration in ticks")
		taskFail   = flag.Float64("task-fail-rate", 0.05, "per-activation probability a running job loses a task")
		maxRetries = flag.Int("max-retries", 2, "bounded retry attempts before falling back to remaining supporting levels")

		telemetryOut = flag.String("telemetry", "", "dump a final metrics-registry snapshot (Prometheus text format) to this file, or - for stderr; reports on stdout are unaffected")
	)
	flag.Parse()

	// The registry snapshot goes to stderr or a file, never stdout: the
	// experiment reports must stay byte-identical with telemetry on.
	var reg *telemetry.Registry
	if *telemetryOut != "" {
		reg = telemetry.NewRegistry()
	}

	if *list {
		fmt.Println("experiments (see DESIGN.md §4 and EXPERIMENTS.md):")
		for _, e := range experiments.Experiments {
			fmt.Printf("  %-20s %s\n", e.ID, e.About)
		}
		return
	}

	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "gridsim: -jobs %d: want at least 1\n", *jobs)
		os.Exit(2)
	}
	cfg := experiments.DefaultConfig(*seed, *jobs)
	cfg.MTTR = *mttr
	cfg.TaskFailRate = *taskFail
	cfg.MaxRetries = *maxRetries
	cfg.Workers = *workers
	cfg.Telemetry = reg
	if *mtbf > 0 {
		// A fixed MTBF pins the sweep to the baseline plus the one
		// availability level it implies.
		cfg.Levels = []float64{1.0, *mtbf / (*mtbf + *mttr)}
	}
	selected := experiments.Experiments
	if *exp != "all" {
		byID := map[string]experiments.Experiment{}
		var ids []string
		for _, e := range experiments.Experiments {
			byID[e.ID] = e
			ids = append(ids, e.ID)
		}
		selected = nil
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e, ok := byID[id]
			if !ok {
				fmt.Fprintf(os.Stderr, "gridsim: unknown experiment %q (have %s, all)\n", id, strings.Join(ids, ", "))
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}
	for _, e := range selected {
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if _, err := rep.WriteTo(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if reg != nil {
		if err := dumpTelemetry(reg, *telemetryOut); err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: telemetry: %v\n", err)
			os.Exit(1)
		}
	}
}

// dumpTelemetry writes the final registry snapshot to path ("-" = stderr).
func dumpTelemetry(reg *telemetry.Registry, path string) error {
	var w io.Writer = os.Stderr
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return reg.WritePrometheus(w)
}
