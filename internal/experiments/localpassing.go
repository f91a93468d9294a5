package experiments

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/dag"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
)

// localPassing (E11) implements the simulation study the paper's §5 names
// as future work: "Inseparability condition for the resources requires
// additional advanced research and simulation approach of local job
// passing", and "advance reservations have impact on the quality of
// service".
//
// The experiment takes the schedules the VO produced with guaranteed
// advance reservations, then REPLAYS every job through per-node local
// FCFS queues with no reservations at all: each task is submitted to its
// planned node the moment its predecessors finish and its data arrives,
// and waits like any local job. The comparison quantifies what the
// reservation guarantee buys: the share of jobs still meeting their
// deadline, and the lateness distribution. It replays the first fig4MaxJobs
// jobs of the Fig. 4 flow at most.
func localPassing(cfg Config) (*Report, error) {
	r := newReport("local-passing",
		"advance reservations vs queued local passing (§5 future work: reservations guarantee QoS)")

	// Phase 1: the reservation-backed VO run (no background load, so the
	// replay differences come from queueing alone).
	vo, env, _, err := runFlow(cfg.Seed, min(cfg.Jobs, fig4MaxJobs), strategy.S1, metasched.Config{Telemetry: cfg.Telemetry})
	if err != nil {
		return nil, err
	}

	var completed []*metasched.JobResult
	for _, res := range vo.Results() {
		if res.State == metasched.StateCompleted {
			completed = append(completed, res)
		}
	}
	if len(completed) == 0 {
		return nil, fmt.Errorf("experiments: local-passing VO run completed no jobs")
	}

	// Phase 2: replay the same placements through per-node FCFS queues.
	finishes, err := replayThroughQueues(env, completed)
	if err != nil {
		return nil, err
	}

	met := 0
	var lateness Series
	for i, res := range completed {
		fin := finishes[i]
		if fin <= res.Job.Deadline {
			met++
		} else {
			lateness.AddInt(int64(fin - res.Job.Deadline))
		}
	}
	reservedShare := 1.0 // by construction: reservations guarantee the plan
	queuedShare := float64(met) / float64(len(completed))

	r.addLine("%-24s %14s %12s", "mode", "met-deadline", "mean-lateness")
	r.addLine("%-24s %14s %12s", "advance-reservations", ratio(reservedShare), "0.0")
	r.addLine("%-24s %14s %12.1f", "queued-local-passing", ratio(queuedShare), lateness.Mean())
	r.addLine("(%d completed jobs replayed through per-node FCFS queues)", len(completed))
	r.Values["met-reserved"] = reservedShare
	r.Values["met-queued"] = queuedShare
	r.Values["mean-lateness"] = lateness.Mean()
	r.Values["jobs"] = float64(len(completed))
	return r, nil
}

// replayThroughQueues executes every completed job's tasks on per-node
// single-processor FCFS clusters: a task is submitted when its
// predecessors have finished and its data has arrived, with its planned
// reservation length as both walltime and runtime. Returns each job's
// replayed finish time.
func replayThroughQueues(env *resource.Environment, jobs []*metasched.JobResult) ([]simtime.Time, error) {
	engine := sim.New()
	type taskDone struct {
		ji  int
		id  dag.TaskID
		end simtime.Time
	}
	var completeTask func(d taskDone)
	clusters := make(map[resource.NodeID]*batch.Cluster, env.NumNodes())
	for _, n := range env.Nodes() {
		c := batch.NewCluster(engine, 1, batch.Policy{})
		c.OnComplete = func(o batch.Outcome) {
			var ji int
			var id int
			if _, err := fmt.Sscanf(o.ID, "%d/%d", &ji, &id); err != nil {
				panic("experiments: bad replay task id " + o.ID)
			}
			completeTask(taskDone{ji: ji, id: dag.TaskID(id), end: o.End})
		}
		clusters[n.ID] = c
	}

	finishes := make([]simtime.Time, len(jobs))
	type taskKey struct {
		job  int
		task dag.TaskID
	}
	// Count unfinished predecessors per task; submit when it hits zero
	// and the latest data arrival has passed.
	waiting := make(map[taskKey]int)
	dataReady := make(map[taskKey]simtime.Time)
	done := make(map[taskKey]bool)
	remaining := make([]int, len(jobs))

	submit := func(ji int, id dag.TaskID, at simtime.Time) {
		res := jobs[ji]
		p := res.Placements[id]
		dur := p.Window.Len()
		engine.At(at, "submit-replay", func() {
			clusters[p.Node].Submit(batch.Request{
				ID:       fmt.Sprintf("%d/%d", ji, id),
				Nodes:    1,
				Walltime: dur,
				Runtime:  dur,
			})
		})
	}

	completeTask = func(d taskDone) {
		key := taskKey{d.ji, d.id}
		if done[key] {
			return
		}
		done[key] = true
		if d.end > finishes[d.ji] {
			finishes[d.ji] = d.end
		}
		remaining[d.ji]--
		// Release successors whose other predecessors are also done.
		scheduled := jobs[d.ji].Scheduled
		for _, e := range scheduled.Out(d.id) {
			sk := taskKey{d.ji, e.To}
			waiting[sk]--
			arrive := d.end + e.BaseTime
			if arrive > dataReady[sk] {
				dataReady[sk] = arrive
			}
			if waiting[sk] == 0 {
				at := dataReady[sk]
				if now := engine.Now(); at < now {
					at = now
				}
				submit(d.ji, e.To, at)
			}
		}
	}

	for ji, res := range jobs {
		scheduled := res.Scheduled
		remaining[ji] = scheduled.NumTasks()
		for _, t := range scheduled.Tasks() {
			key := taskKey{ji, t.ID}
			waiting[key] = len(scheduled.In(t.ID))
			dataReady[key] = res.Arrival
			if waiting[key] == 0 {
				submit(ji, t.ID, res.Arrival)
			}
		}
	}
	engine.Run()
	for ji, rem := range remaining {
		if rem != 0 {
			return nil, fmt.Errorf("experiments: replay deadlocked on job %d (%d tasks left)", ji, rem)
		}
	}
	return finishes, nil
}
