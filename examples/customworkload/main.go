// Customworkload shows the jobio wire format: a compound job authored as
// JSON (as cmd/jobgen emits, or as an external portal would submit), read
// back into the library and scheduled with the critical works method.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/criticalworks"
	"repro/internal/jobio"
)

const jobJSON = `[{
  "name": "render-farm",
  "deadline": 90,
  "tasks": [
    {"name": "ingest",    "baseTime": 2, "volume": 10},
    {"name": "frame-1",   "baseTime": 6, "volume": 60},
    {"name": "frame-2",   "baseTime": 6, "volume": 60},
    {"name": "frame-3",   "baseTime": 6, "volume": 60},
    {"name": "composite", "baseTime": 3, "volume": 30}
  ],
  "edges": [
    {"name": "d1", "from": "ingest",  "to": "frame-1",   "baseTime": 2, "volume": 20},
    {"name": "d2", "from": "ingest",  "to": "frame-2",   "baseTime": 2, "volume": 20},
    {"name": "d3", "from": "ingest",  "to": "frame-3",   "baseTime": 2, "volume": 20},
    {"name": "o1", "from": "frame-1", "to": "composite", "baseTime": 1, "volume": 10},
    {"name": "o2", "from": "frame-2", "to": "composite", "baseTime": 1, "volume": 10},
    {"name": "o3", "from": "frame-3", "to": "composite", "baseTime": 1, "volume": 10}
  ]
}]`

const envJSON = `[
  {"name": "gpu-1",  "performance": 1.0,  "domain": "farm"},
  {"name": "gpu-2",  "performance": 0.8,  "domain": "farm"},
  {"name": "cpu-1",  "performance": 0.5,  "domain": "farm"},
  {"name": "cpu-2",  "performance": 0.33, "domain": "farm"},
  {"name": "spare",  "performance": 0.27, "domain": "farm"}
]`

func main() {
	jobs, err := jobio.ReadJobs(strings.NewReader(jobJSON))
	if err != nil {
		log.Fatal(err)
	}
	env, err := jobio.ReadEnvironment(strings.NewReader(envJSON))
	if err != nil {
		log.Fatal(err)
	}
	job := jobs[0]
	fmt.Printf("loaded %q: %d tasks, %d transfers, deadline %d, on %d nodes\n",
		job.Name, job.NumTasks(), job.NumEdges(), job.Deadline, env.NumNodes())

	sched, err := criticalworks.Build(env, criticalworks.EmptyCalendars(env), job,
		criticalworks.Options{Objective: criticalworks.MinCost})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule: CF=%d, window [%d,%d), %d collisions\n",
		sched.Cost, sched.Start, sched.Finish, len(sched.Collisions))
	for _, t := range job.Tasks() {
		p := sched.Placements[t.ID]
		fmt.Printf("  %-10s -> %-6s %v\n", t.Name, env.Node(p.Node).Name, p.Window)
	}
}
