// Package repro is a Go reproduction of V. Toporkov, "Application-Level
// and Job-Flow Scheduling: An Approach for Achieving Quality of Service in
// Distributed Computing" (PaCT 2009, LNCS 5698, pp. 350–359).
//
// The library implements the paper's full stack from scratch:
//
//   - compound jobs as DAGs of tasks and data transfers (internal/dag);
//   - a heterogeneous resource model with reservation calendars, the
//     paper's performance groups and the §3 user estimates T_ik = k × T_i1
//     (internal/resource);
//   - the data policies distinguishing the strategy families: active
//     replication, remote access, static storage (internal/data);
//   - the VO economic model, CF = Σ ceil(V/T) (internal/economy);
//   - the critical works method — the paper's core application-level
//     co-allocation algorithm with collision detection and economic
//     resolution (internal/criticalworks);
//   - strategies as sets of supporting schedules, families S1/S2/S3/MS1
//     (internal/strategy);
//   - the Fig. 1 hierarchy: metascheduler, domain job managers, dynamic
//     background load, supporting-schedule fallback and job reallocation
//     (internal/metasched);
//   - local batch systems: FCFS, LWF, EASY and conservative backfilling,
//     gang scheduling, advance reservations (internal/batch);
//   - a deterministic discrete-event engine (internal/sim), workload
//     generation per §4 (internal/workload), and one experiment runner
//     per paper figure (internal/experiments).
//
// This package re-exports the high-level API; see the examples/ directory
// for runnable walkthroughs and EXPERIMENTS.md for the paper-vs-measured
// record.
package repro

import (
	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Version identifies the reproduction release.
const Version = "1.0.0"

// Job modeling.
type (
	// Job is a compound job: a DAG of tasks and data transfers with a
	// fixed completion time.
	Job = dag.Job
	// JobBuilder assembles jobs task by task.
	JobBuilder = dag.Builder
)

// NewJob starts building a compound job.
func NewJob(name string) *JobBuilder { return dag.NewBuilder(name) }

// Resource modeling.
type (
	// Node is one heterogeneous processor node.
	Node = resource.Node
	// Environment is the virtual organization's node set.
	Environment = resource.Environment
)

// NewNode creates a node; perf is relative performance in (0,1].
func NewNode(id int, name string, perf float64, domain string) *Node {
	return resource.NewNode(resource.NodeID(id), name, perf, domain)
}

// NewEnvironment wraps nodes with dense IDs 0..n-1.
func NewEnvironment(nodes []*Node) *Environment { return resource.NewEnvironment(nodes) }

// Scheduling.
type (
	// Schedule is one Distribution: a complete coordinated allocation.
	Schedule = criticalworks.Schedule
	// Strategy is a set of supporting schedules for one job.
	Strategy = strategy.Strategy
	// StrategyGenerator produces strategies against an environment.
	StrategyGenerator = strategy.Generator
	// StrategyType selects a §4 family.
	StrategyType = strategy.Type
)

// The §4 strategy families.
const (
	S1  = strategy.S1
	S2  = strategy.S2
	S3  = strategy.S3
	MS1 = strategy.MS1
)

// Calendars is a scheduling view: one reservation calendar per node,
// indexed by the node's ID. Builds read it and write nothing; placing a
// plan reserves on the books.
type Calendars = criticalworks.Calendars

// EmptyCalendars returns a fresh view for every node in env.
func EmptyCalendars(env *Environment) Calendars { return criticalworks.EmptyCalendars(env) }

// SnapshotCalendars clones the live calendars of every node in env.
func SnapshotCalendars(env *Environment) Calendars { return criticalworks.Snapshot(env) }

// BuildSchedule runs the critical works method for one job on empty
// calendars — the simplest entry point; use StrategyGenerator for the full
// strategy machinery.
func BuildSchedule(env *Environment, job *Job) (*Schedule, error) {
	return criticalworks.Build(env, EmptyCalendars(env), job, criticalworks.Options{})
}

// Job-flow level.
type (
	// VO is the full Fig. 1 hierarchy over a sim engine.
	VO = metasched.VO
	// VOConfig tunes the virtual organization.
	VOConfig = metasched.Config
	// JobResult records one job's passage through the VO.
	JobResult = metasched.JobResult
	// Engine is the deterministic discrete-event clock.
	Engine = sim.Engine
)

// NewEngine returns a simulation engine at time 0.
func NewEngine() *Engine { return sim.New() }

// NewVO builds the metascheduler hierarchy over env.
func NewVO(engine *Engine, env *Environment, cfg VOConfig) *VO {
	return metasched.NewVO(engine, env, cfg)
}

// Workloads and experiments.
type (
	// WorkloadConfig parameterizes §4 synthetic generation.
	WorkloadConfig = workload.Config
	// WorkloadGenerator emits environments, jobs and flows.
	WorkloadGenerator = workload.Generator
	// Report is one experiment's printable and machine-readable outcome.
	Report = experiments.Report
)

// DefaultWorkload returns the §4 generation parameters.
func DefaultWorkload(seed uint64) WorkloadConfig { return workload.Default(seed) }

// NewWorkload creates a generator.
func NewWorkload(cfg WorkloadConfig) *WorkloadGenerator { return workload.New(cfg) }
