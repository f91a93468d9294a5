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
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for independent units (1 forces the sequential path; results are byte-identical at any value)")
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
		for _, row := range [][2]string{
			{"fig2", "E1: the §3 worked example — critical works, distributions, collision"},
			{"fig3a", "E2: % admissible application-level schedules per strategy"},
			{"fig3b", "E3: collision split across fast/slow nodes"},
			{"fig4a", "E4: node load level by performance group under job flows"},
			{"fig4b", "E5: relative job cost and task execution time"},
			{"fig4c", "E6: strategy time-to-live and start deviation"},
			{"policies", "E7: local batch policies (§5 claims)"},
			{"ablation-collision", "E8: economic reallocation vs pinned-node delay"},
			{"ablation-levels", "E9: S1 vs MS1 generation expense and coverage"},
			{"comparison", "E10: critical works vs min-min/max-min/sufferage/OLB"},
			{"local-passing", "E11: advance reservations vs queued local passing"},
			{"availability", "E12: QoS-miss rate and TTL vs node availability (fault injection)"},
		} {
			fmt.Printf("  %-20s %s\n", row[0], row[1])
		}
		return
	}

	fig3Cfg := func(jobs int) experiments.Fig3Config {
		cfg := experiments.DefaultFig3(*seed, jobs)
		cfg.Workers = *workers
		cfg.Telemetry = reg
		return cfg
	}
	fig4Cfg := func() experiments.Fig4Config {
		cfg := experiments.DefaultFig4(*seed, fig4Scale(*jobs))
		cfg.Workers = *workers
		cfg.Telemetry = reg
		return cfg
	}
	runners := map[string]func() (*experiments.Report, error){
		"fig2": func() (*experiments.Report, error) {
			return experiments.Fig2Telemetry(reg)
		},
		"fig3a": func() (*experiments.Report, error) {
			return experiments.Fig3a(fig3Cfg(*jobs))
		},
		"fig3b": func() (*experiments.Report, error) {
			return experiments.Fig3b(fig3Cfg(*jobs))
		},
		"fig4a": func() (*experiments.Report, error) {
			return experiments.Fig4a(fig4Cfg())
		},
		"fig4b": func() (*experiments.Report, error) {
			return experiments.Fig4b(fig4Cfg())
		},
		"fig4c": func() (*experiments.Report, error) {
			return experiments.Fig4c(fig4Cfg())
		},
		"policies": func() (*experiments.Report, error) {
			return experiments.Policies(experiments.DefaultPolicies(*seed, *jobs))
		},
		"ablation-collision": func() (*experiments.Report, error) {
			return experiments.AblationCollision(fig3Cfg(ablationScale(*jobs)))
		},
		"ablation-levels": func() (*experiments.Report, error) {
			cfg := experiments.DefaultAblationLevels(*seed, ablationScale(*jobs))
			cfg.Workers = *workers
			return experiments.AblationLevels(cfg)
		},
		"comparison": func() (*experiments.Report, error) {
			return experiments.Comparison(fig3Cfg(ablationScale(*jobs)))
		},
		"local-passing": func() (*experiments.Report, error) {
			return experiments.LocalPassing(fig4Cfg())
		},
		"availability": func() (*experiments.Report, error) {
			cfg := experiments.DefaultAvailability(*seed, availabilityScale(*jobs))
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
			return experiments.Availability(cfg)
		},
	}
	order := []string{"fig2", "fig3a", "fig3b", "fig4a", "fig4b", "fig4c",
		"policies", "ablation-collision", "ablation-levels", "comparison", "local-passing",
		"availability"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := runners[id]; !ok {
				fmt.Fprintf(os.Stderr, "gridsim: unknown experiment %q (have %s, all)\n", id, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, id)
		}
	}
	for _, id := range selected {
		rep, err := runners[id]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: %s: %v\n", id, err)
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

// fig4Scale caps the flow length: the VO experiment is an order of
// magnitude heavier per job than the application-level corpus.
func fig4Scale(jobs int) int {
	if jobs > 400 {
		return 400
	}
	return jobs
}

// ablationScale caps the ablation corpora similarly.
func ablationScale(jobs int) int {
	if jobs > 2000 {
		return 2000
	}
	return jobs
}

// availabilityScale caps the fault sweep: it runs one VO per
// (strategy, availability) pair, an order of magnitude more simulation
// than a single fig4 run.
func availabilityScale(jobs int) int {
	if jobs > 200 {
		return 200
	}
	return jobs
}
