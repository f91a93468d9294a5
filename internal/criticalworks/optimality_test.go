package criticalworks

import (
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// bruteForceChain exhaustively evaluates every node assignment of a linear
// job on empty calendars under earliest-start semantics and returns the
// optimal (finish, cost) under the given objective. Only usable for tiny
// instances.
func bruteForceChain(env *resource.Environment, job *dag.Job, obj Objective) (simtime.Time, int64, bool) {
	order := job.TopoOrder()
	n := env.NumNodes()

	bestFinish := simtime.Infinity
	var bestCost int64
	found := false

	assign := make([]resource.NodeID, len(order))
	var walk func(pos int)
	walk = func(pos int) {
		if pos == len(order) {
			// Simulate earliest-start execution with remote-access
			// transfers (the default policy in Build).
			finishes := make(map[dag.TaskID]simtime.Time)
			var finish simtime.Time
			var cost int64
			for i, id := range order {
				node := env.Node(assign[i])
				dur := resource.Estimate(job.Task(id).BaseTime, node.Tier())
				var start simtime.Time
				for _, e := range job.In(id) {
					from := finishes[e.From]
					// Remote access pays the base time regardless of
					// co-location (see data.Model.TransferTime).
					if t := from + e.BaseTime; t > start {
						start = t
					}
				}
				end := start + dur
				finishes[id] = end
				if end > finish {
					finish = end
				}
				cost += (job.Task(id).Volume + int64(dur) - 1) / int64(dur)
			}
			if finish > job.Deadline {
				return
			}
			better := false
			switch {
			case !found:
				better = true
			case obj == MinCost:
				better = cost < bestCost || (cost == bestCost && finish < bestFinish)
			default:
				better = finish < bestFinish || (finish == bestFinish && cost < bestCost)
			}
			if better {
				bestFinish, bestCost, found = finish, cost, true
			}
			return
		}
		for k := 0; k < n; k++ {
			assign[pos] = resource.NodeID(k)
			walk(pos + 1)
		}
	}
	walk(0)
	return bestFinish, bestCost, found
}

// linearJob builds a random chain job of up to 4 tasks.
func linearChainJob(r *rng.Source) *dag.Job {
	n := r.IntBetween(1, 4)
	b := dag.NewBuilder("chain")
	prev := ""
	var span simtime.Time
	for i := 0; i < n; i++ {
		name := string(rune('A' + i))
		bt := simtime.Time(r.IntBetween(1, 5))
		span += 4 * bt
		b.Task(name, bt, int64(r.IntBetween(1, 25)))
		if prev != "" {
			tt := simtime.Time(r.IntBetween(0, 3))
			span += tt
			b.Edge(prev+">"+name, prev, name, tt, 1)
		}
		prev = name
	}
	b.Deadline(span + simtime.Time(r.IntBetween(0, 10)))
	return b.MustBuild()
}

func smallEnv(r *rng.Source) *resource.Environment {
	perfs := []float64{1.0, 0.5, 0.33, 0.25}
	n := r.IntBetween(2, 3)
	nodes := make([]*resource.Node, n)
	for i := range nodes {
		nodes[i] = resource.NewNode(resource.NodeID(i), "n", perfs[r.Intn(len(perfs))], "d")
	}
	return resource.NewEnvironment(nodes)
}

// TestQuickDPOptimalOnChains verifies the per-chain DP against exhaustive
// search: for a single-chain job on empty calendars, the DP's objective
// value must equal the brute-force optimum.
//
// The single-chain restriction matters: across chains the method is a
// greedy heuristic by design; within one chain the DP claims optimality
// over (position × node) given the earliest-start recurrence.
func TestQuickDPOptimalOnChains(t *testing.T) {
	f := func(seed uint64, costObj bool) bool {
		r := rng.New(seed)
		env := smallEnv(r)
		job := linearChainJob(r)
		obj := MinFinish
		if costObj {
			obj = MinCost
		}

		got, gotErr := Build(env, EmptyCalendars(env), job, Options{Objective: obj})
		wantFinish, wantCost, feasible := bruteForceChain(env, job, obj)

		if gotErr != nil {
			// The DP bounds are tighter than raw earliest-start, so a DP
			// failure with a feasible brute-force solution is possible
			// only through the lft tightening; for single chains the
			// bounds coincide with the recurrence, so this must agree.
			return !feasible
		}
		if !feasible {
			return false // DP found something brute force says cannot exist
		}
		if obj == MinCost {
			return got.Cost == wantCost
		}
		return got.Finish == wantFinish
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
