// Command gridsim regenerates the paper's evaluation artifacts: every
// figure of Toporkov (PaCT 2009) plus the §5 policy claims and two design
// ablations. See EXPERIMENTS.md for the experiment index and the
// paper-vs-measured record.
//
// Usage:
//
//	gridsim -exp all                 # the whole record at paper scale (results_full.txt)
//	gridsim -exp fig3a -jobs 2000    # one experiment on a smaller corpus
//	gridsim -exp fig4c -seed 7
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is gridsim on the command-line arguments args: the reports go to
// stdout, diagnostics to stderr, and it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment id (comma-separated), or all; see -list")
		jobs    = fs.Int("jobs", 12000, "corpus size for the statistical experiments (the paper's for Fig. 3); every other experiment caps it at its own scale")
		seed    = fs.Uint64("seed", 1, "deterministic seed")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for independent units (results are byte-identical at any value)")
		list    = fs.Bool("list", false, "list the experiment ids and what they regenerate")

		// Fault-injection knobs for the availability sweep (E12).
		mtbf       = fs.Float64("mtbf", 0, "mean time between node failures; overrides the sweep's availability levels when set (requires -mttr)")
		mttr       = fs.Float64("mttr", 20, "mean outage duration in ticks")
		taskFail   = fs.Float64("task-fail-rate", 0.05, "per-activation probability a running job loses a task")
		maxRetries = fs.Int("max-retries", 2, "bounded retry attempts before falling back to remaining supporting levels")

		telemetryOut = fs.String("telemetry", "", "dump a final metrics-registry snapshot (Prometheus text format) to this file, or - for stderr; reports on stdout are unaffected")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	// The registry snapshot goes to stderr or a file, never stdout: the
	// experiment reports must stay byte-identical with telemetry on.
	var reg *telemetry.Registry
	if *telemetryOut != "" {
		reg = telemetry.NewRegistry()
	}

	if *list {
		fmt.Fprintln(stdout, "experiments (see DESIGN.md §4 and EXPERIMENTS.md):")
		for _, e := range experiments.Experiments {
			fmt.Fprintf(stdout, "  %-20s %s\n", e.ID, e.About)
		}
		return 0
	}

	if *jobs < 1 {
		fmt.Fprintf(stderr, "gridsim: -jobs %d: want at least 1\n", *jobs)
		return 2
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
				fmt.Fprintf(stderr, "gridsim: unknown experiment %q (have %s, all)\n", id, strings.Join(ids, ", "))
				return 2
			}
			selected = append(selected, e)
		}
	}
	for _, e := range selected {
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "gridsim: %s: %v\n", e.ID, err)
			return 1
		}
		if _, err := rep.WriteTo(stdout); err != nil {
			fmt.Fprintf(stderr, "gridsim: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout)
	}

	if reg != nil {
		if err := dumpTelemetry(reg, *telemetryOut, stderr); err != nil {
			fmt.Fprintf(stderr, "gridsim: telemetry: %v\n", err)
			return 1
		}
	}
	return 0
}

// dumpTelemetry writes the final registry snapshot to path ("-" = stderr).
func dumpTelemetry(reg *telemetry.Registry, path string, stderr io.Writer) error {
	w := stderr
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
