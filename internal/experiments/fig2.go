package experiments

import (
	"fmt"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/strategy"
)

// Fig2Job builds the paper's Fig. 2(a) example: tasks P1..P6 with the §3
// estimation table (T_i1 = 2,3,1,2,1,2; V = 20,30,10,20,10,20), transfers
// D1..D8 with unit base times so the four critical works measure 12, 11,
// 10 and 9 time units on type-1 nodes, and the Gantt charts' 20-tick
// horizon as the deadline.
func Fig2Job() *dag.Job {
	b := dag.NewBuilder("fig2").Deadline(20)
	b.Task("P1", 2, 20)
	b.Task("P2", 3, 30)
	b.Task("P3", 1, 10)
	b.Task("P4", 2, 20)
	b.Task("P5", 1, 10)
	b.Task("P6", 2, 20)
	b.Edge("D1", "P1", "P2", 1, 10)
	b.Edge("D2", "P1", "P3", 1, 10)
	b.Edge("D3", "P2", "P4", 1, 10)
	b.Edge("D4", "P2", "P5", 1, 10)
	b.Edge("D5", "P3", "P4", 1, 10)
	b.Edge("D6", "P3", "P5", 1, 10)
	b.Edge("D7", "P4", "P6", 1, 10)
	b.Edge("D8", "P5", "P6", 1, 10)
	return b.MustBuild()
}

// Fig2Env builds the example's node set: one node per §3 estimation tier
// (types 1..4).
func Fig2Env() *resource.Environment {
	perfs := []float64{1.0, 0.5, 0.33, 0.25}
	nodes := make([]*resource.Node, len(perfs))
	for i, p := range perfs {
		nodes[i] = resource.NewNode(resource.NodeID(i), fmt.Sprintf("node-%d", i+1), p, "example")
	}
	return resource.NewEnvironment(nodes)
}

// fig2 regenerates the paper's worked example: the four critical works of
// Fig. 2(a) and a strategy whose supporting schedules reproduce the
// structure of Fig. 2(b) — several alternative Distributions where the
// cheapest one (the paper's CF2 = 37 < CF1 = CF3 = 41) is NOT the fastest.
// It has no corpus and no seed; of cfg it reads only Telemetry.
func fig2(cfg Config) (*Report, error) {
	r := newReport("fig2", "worked example: critical works and distributions (paper §3, Fig. 2)")
	job := Fig2Job()
	env := Fig2Env()

	chains := job.AllChains(dag.WeightFunc{})
	r.addLine("critical works (type-1 estimates, transfers included):")
	for i, c := range chains {
		names := make([]string, len(c.Tasks))
		for k, id := range c.Tasks {
			names[k] = job.Task(id).Name
		}
		r.addLine("  %d. %s  length %d", i+1, joinTasks(names), c.Length)
		r.Values[fmt.Sprintf("chain%d", i+1)] = float64(c.Length)
	}

	// The MinFinish objective exposes the Fig. 2(b) trade-off across the
	// strategy's levels: the level-1 schedule races on the fastest nodes
	// (the paper's CF1 = CF3 = 41 class), while the higher levels run on
	// slower, cheaper nodes (the CF2 = 37 class). The deadline is relaxed
	// from the Gantt's 20 to 24 so more than one estimation level is
	// feasible and the strategy actually contains alternatives (with four
	// nodes and full transfers, the tier-2 level needs 21 ticks).
	gen := &strategy.Generator{Env: env, Telemetry: cfg.Telemetry}
	st, err := gen.Generate(job.WithDeadline(24), strategy.S2, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		return nil, err
	}
	r.addLine("distributions (one per estimation level):")
	for _, d := range st.Distributions {
		r.addLine("  level %d: CF=%d finish=%d admissible=%v  %s",
			d.Level, d.Cost, d.Finish, d.Admissible, renderAllocations(job, env, d))
		r.Values[fmt.Sprintf("cf-level%d", d.Level)] = float64(d.Cost)
		r.Values[fmt.Sprintf("finish-level%d", d.Level)] = float64(d.Finish)
		if d.Admissible {
			r.Values[fmt.Sprintf("admissible-level%d", d.Level)] = 1
		}
	}
	cheap := st.CheapestAdmissible()
	fast := st.FastestAdmissible()
	if cheap == nil || fast == nil {
		return nil, fmt.Errorf("experiments: fig2 strategy has no admissible distribution")
	}
	r.addLine("cheapest admissible: level %d (CF=%d); fastest: level %d (CF=%d)",
		cheap.Level, cheap.Cost, fast.Level, fast.Cost)
	r.Values["cheapest-cf"] = float64(cheap.Cost)
	r.Values["fastest-cf"] = float64(fast.Cost)
	r.Values["cheapest-level"] = float64(cheap.Level)
	r.Values["fastest-level"] = float64(fast.Level)

	// The paper's P4/P5 collision on node 3: reproduce it on a constrained
	// environment where both branch tasks prefer the same node.
	constrained := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "node-3", 0.33, "example"),
		resource.NewNode(1, "node-4", 0.25, "example"),
	})
	sched, err := criticalworks.Build(constrained, criticalworks.EmptyCalendars(constrained),
		job.WithDeadline(80), criticalworks.Options{Telemetry: cfg.Telemetry})
	if err != nil {
		return nil, err
	}
	r.Values["collisions"] = float64(len(sched.Collisions))
	for _, c := range sched.Collisions {
		r.addLine("collision: task %s wanted %v on %s (held by %s) — resolved by reallocation",
			job.Task(c.Task).Name, c.Window, constrained.Node(c.Node).Name, job.Task(c.Holder).Name)
	}
	return r, nil
}

func joinTasks(names []string) string {
	out := names[0]
	for _, n := range names[1:] {
		out += "-" + n
	}
	return out
}

func renderAllocations(job *dag.Job, env *resource.Environment, d strategy.Distribution) string {
	out := ""
	for i := 0; i < job.NumTasks(); i++ {
		p := d.Placements[dag.TaskID(i)]
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s/%d[%d,%d)", job.Task(p.Task).Name, p.Node+1, p.Window.Start, p.Window.End)
	}
	return out
}
