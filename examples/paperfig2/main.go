// Paperfig2 walks through the paper's §3 worked example end to end: the
// Fig. 2(a) job graph and estimation table, the four critical works, the
// strategy's alternative distributions (Fig. 2(b)), and the P4/P5-style
// collision with its economic resolution.
package main

import (
	"fmt"
	"log"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/resource"
)

func main() {
	job := experiments.Fig2Job()
	env := experiments.Fig2Env()

	// 1. The user estimation table of §3 derives from the type-1 times:
	//    T_ik = k × T_i1.
	fmt.Println("estimation table (rows: tasks; columns: node types 1..4; V):")
	for _, t := range job.Tasks() {
		fmt.Printf("  %-3s", t.Name)
		for k := resource.Tier(1); k <= resource.NumTiers; k++ {
			fmt.Printf(" %3d", resource.Estimate(t.BaseTime, k))
		}
		fmt.Printf("   V=%d\n", t.Volume)
	}

	// 2. The four critical works — the paper reports lengths 12, 11, 10, 9.
	fmt.Println("\ncritical works (type-1 estimates, transfers included):")
	for _, c := range job.AllChains(dag.WeightFunc{}) {
		names := ""
		for i, id := range c.Tasks {
			if i > 0 {
				names += "-"
			}
			names += job.Task(id).Name
		}
		fmt.Printf("  %-14s length %d\n", names, c.Length)
	}

	// 3. One full scheduling run against the Fig. 2 environment.
	sched, err := criticalworks.Build(env, criticalworks.EmptyCalendars(env), job, criticalworks.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndistribution: CF=%d, window [%d,%d), deadline %d\n",
		sched.Cost, sched.Start, sched.Finish, job.Deadline)
	for _, t := range job.Tasks() {
		p := sched.Placements[t.ID]
		fmt.Printf("  %s/%d %v\n", t.Name, p.Node+1, p.Window)
	}

	// 4. The paper's collision: on a two-node environment P4 and P5 both
	//    want the same node; the loser is reallocated.
	constrained := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "node-3", 0.33, "example"),
		resource.NewNode(1, "node-4", 0.25, "example"),
	})
	sched2, err := criticalworks.Build(constrained, criticalworks.EmptyCalendars(constrained),
		job.WithDeadline(80), criticalworks.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncollisions on the constrained two-node environment:")
	for _, c := range sched2.Collisions {
		actual := sched2.Placements[c.Task]
		fmt.Printf("  %s wanted %v on %s (held by %s); resolved to %s %v\n",
			job.Task(c.Task).Name, c.Window, constrained.Node(c.Node).Name,
			job.Task(c.Holder).Name, constrained.Node(actual.Node).Name, actual.Window)
	}
}
