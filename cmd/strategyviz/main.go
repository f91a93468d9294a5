// Command strategyviz renders a job's scheduling strategy as ASCII Gantt
// charts — one chart per supporting schedule, in the style of the paper's
// Fig. 2(b).
//
// Usage:
//
//	strategyviz                 # the paper's Fig. 2 example job
//	strategyviz -job 17 -type S3 -seed 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is strategyviz on the command-line arguments args: the charts go to
// stdout, diagnostics to stderr, and it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("strategyviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jobIdx  = fs.Int("job", -1, "workload job index; -1 renders the paper's Fig. 2 example")
		typName = fs.String("type", "S2", "strategy family: S1, S2, S3, MS1")
		seed    = fs.Uint64("seed", 1, "workload seed for -job")
		dot     = fs.Bool("dot", false, "emit the job graph as Graphviz DOT instead of Gantt charts")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	typ, err := strategy.ParseType(*typName)
	if err != nil {
		fmt.Fprintf(stderr, "strategyviz: %v\n", err)
		return 2
	}

	var job *dag.Job
	var env *resource.Environment
	if *jobIdx < 0 {
		job = experiments.Fig2Job().WithDeadline(24)
		env = experiments.Fig2Env()
	} else {
		gen := workload.New(workload.Default(*seed))
		job = gen.Job(*jobIdx)
		env = gen.Environment(1)
	}

	if *dot {
		if err := job.WriteDOT(stdout); err != nil {
			fmt.Fprintf(stderr, "strategyviz: %v\n", err)
			return 1
		}
		return 0
	}

	gen := &strategy.Generator{Env: env}
	st, err := gen.Generate(job, typ, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		fmt.Fprintf(stderr, "strategyviz: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "job %s: %d tasks, %d transfers, deadline %d, strategy %s\n",
		job.Name, job.NumTasks(), job.NumEdges(), job.Deadline, typ)
	if len(st.FailedLevels) > 0 {
		fmt.Fprintf(stdout, "infeasible levels: %v\n", st.FailedLevels)
	}
	for _, d := range st.Distributions {
		fmt.Fprintf(stdout, "\nDistribution (level %d): CF=%d finish=%d admissible=%v\n",
			d.Level, d.Cost, d.Finish, d.Admissible)
		renderGantt(stdout, env, st.Scheduled, d)
	}
	return 0
}

// renderGantt prints one row per node that hosts a task, with task names
// written into their reservation windows.
func renderGantt(w io.Writer, env *resource.Environment, job *dag.Job, d strategy.Distribution) {
	span := d.Finish
	if span <= 0 {
		return
	}
	const maxCols = 96
	scale := 1.0
	if span > maxCols {
		scale = float64(maxCols) / float64(span)
	}
	col := func(t simtime.Time) int { return int(float64(t) * scale) }

	rows := map[resource.NodeID][]criticalworks.Placement{}
	for _, p := range d.Placements {
		rows[p.Node] = append(rows[p.Node], p)
	}
	for _, n := range env.Nodes() {
		ps, ok := rows[n.ID]
		if !ok {
			continue
		}
		line := make([]byte, col(span)+1)
		for i := range line {
			line[i] = '.'
		}
		for _, p := range ps {
			s, e := col(p.Window.Start), col(p.Window.End)
			if e <= s {
				e = s + 1
			}
			name := job.Task(p.Task).Name
			for i := s; i < e && i < len(line); i++ {
				line[i] = '#'
			}
			for i, ch := range name {
				if s+i < e && s+i < len(line) {
					line[s+i] = byte(ch)
				}
			}
		}
		fmt.Fprintf(w, "  %-10s perf %.2f |%s|\n", n.Name, n.Perf, string(line))
	}
	fmt.Fprintf(w, "  %-10s           0%s%d\n", "time", strings.Repeat(" ", col(span)), span)
}
