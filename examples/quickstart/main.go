// Quickstart: build a compound job, generate its scheduling strategy with
// the critical works method, and pick a distribution — the minimal
// end-to-end use of the library.
package main

import (
	"fmt"
	"log"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/strategy"
)

func main() {
	// A small scientific workflow: preprocess, two parallel analyses, and
	// a merge. Each task carries a type-1 (fastest node) time estimate and
	// a computation volume; each edge a transfer time and data volume.
	b := dag.NewBuilder("demo").Deadline(60)
	b.Task("prep", 3, 30)
	b.Task("analyzeA", 5, 50)
	b.Task("analyzeB", 4, 40)
	b.Task("merge", 2, 20)
	b.Edge("inA", "prep", "analyzeA", 2, 10)
	b.Edge("inB", "prep", "analyzeB", 2, 10)
	b.Edge("outA", "analyzeA", "merge", 1, 5)
	b.Edge("outB", "analyzeB", "merge", 1, 5)
	job, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// A heterogeneous four-node environment: one node per estimation tier
	// of the paper's §3 table (performance 1, 0.5, 0.33, 0.25).
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "fast", 1.0, "site"),
		resource.NewNode(1, "mid", 0.5, "site"),
		resource.NewNode(2, "slow", 0.33, "site"),
		resource.NewNode(3, "slower", 0.25, "site"),
	})

	// Generate the S1 strategy (fine-grain, active data replication): one
	// supporting schedule per feasible estimation level.
	gen := &strategy.Generator{Env: env}
	st, err := gen.Generate(job, strategy.S1, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("strategy %s for %q: %d supporting schedules (levels failed: %v)\n",
		st.Type, job.Name, len(st.Distributions), st.FailedLevels)
	for _, d := range st.Distributions {
		fmt.Printf("  level %d: CF=%d finish=%d admissible=%v collisions=%d\n",
			d.Level, d.Cost, d.Finish, d.Admissible, len(d.Schedule.Collisions))
	}

	// The metascheduler's default pick is the cheapest admissible
	// distribution; a QoS-first caller would take the fastest.
	cheap := st.CheapestAdmissible()
	fast := st.FastestAdmissible()
	if cheap == nil {
		log.Fatal("no admissible distribution — tighten the environment or loosen the deadline")
	}
	fmt.Printf("\ncheapest admissible (level %d, CF=%d):\n", cheap.Level, cheap.Cost)
	for _, t := range job.Tasks() {
		p := cheap.Placements[t.ID]
		fmt.Printf("  %-8s -> %-6s %v\n", t.Name, env.Node(p.Node).Name, p.Window)
	}
	fmt.Printf("\nfastest admissible finishes at %d (CF=%d vs %d — paying for speed)\n",
		fast.Finish, fast.Cost, cheap.Cost)
}
