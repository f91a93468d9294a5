// Command scalecheck is the CI gate over cmd/gridload's BENCH_scale.json
// artifact. It applies two kinds of checks (either or both):
//
//   - -baseline: diff the current report against a committed baseline.
//     The deterministic section (admission counts, terminal states,
//     model-time goodput) must match exactly — any drift is a behavioral
//     scheduler regression, or an intentional change that must re-commit
//     the baseline. The wall-clock section is printed for information
//     only: wall-clock regressions are gated by the gridbench ledger
//     (benchmark/, BENCHMARK.json), whose bounds are A/A-checked.
//   - -expect-identical: diff two fresh runs of the same scenario and
//     fail on any deterministic divergence — the reproducibility check
//     the in-process path guarantees.
//
// Usage:
//
//	scalecheck -current BENCH_scale.json -baseline BENCH_scale_baseline.json
//	scalecheck -current run1.json -expect-identical run2.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/scalereport"
)

func main() {
	var (
		current   = flag.String("current", "BENCH_scale.json", "report from this run")
		baseline  = flag.String("baseline", "", "committed baseline to gate against")
		identical = flag.String("expect-identical", "", "second fresh run that must match -current deterministically")
	)
	flag.Parse()
	if *baseline == "" && *identical == "" {
		fmt.Fprintln(os.Stderr, "scalecheck: at least one of -baseline or -expect-identical is required")
		os.Exit(2)
	}

	cur, err := scalereport.Load(*current)
	if err != nil {
		fatal(err)
	}
	failed := false
	if *identical != "" {
		other, err := scalereport.Load(*identical)
		if err != nil {
			fatal(err)
		}
		if diffs := scalereport.CompareDeterministic(cur, other); len(diffs) > 0 {
			failed = true
			fmt.Fprintf(os.Stderr, "scalecheck: FAIL — same-seed runs diverge (determinism broken):\n")
			printAll(diffs)
		} else {
			fmt.Printf("scalecheck: determinism OK — %s and %s agree on all deterministic fields\n", *current, *identical)
		}
	}
	if *baseline != "" {
		base, err := scalereport.Load(*baseline)
		if err != nil {
			fatal(err)
		}
		if diffs := scalereport.CompareDeterministic(cur, base); len(diffs) > 0 {
			failed = true
			fmt.Fprintf(os.Stderr, "scalecheck: FAIL — deterministic drift vs baseline %s:\n", *baseline)
			printAll(diffs)
		} else {
			fmt.Printf("scalecheck: OK — deterministic section identical (not gated: goodput %.1f jobs/s, baseline %.1f; admission p99 %.4fs, baseline %.4fs)\n",
				cur.Wall.GoodputJobsPerSec, base.Wall.GoodputJobsPerSec,
				cur.Wall.AdmissionP99, base.Wall.AdmissionP99)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func printAll(msgs []string) {
	for _, m := range msgs {
		fmt.Fprintf(os.Stderr, "  - %s\n", m)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "scalecheck: %v\n", err)
	os.Exit(2)
}
