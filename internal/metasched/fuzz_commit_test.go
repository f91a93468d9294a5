package metasched

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
)

// fuzzPlan is one decoded adversarial plan with its arbiter key: the
// windows one job wants booked, all or nothing.
type fuzzPlan struct {
	key     commitKey
	name    string
	windows []criticalworks.Placement // Task is the index into windows
}

// decodeCommitInput turns fuzz bytes into a set of per-job plans: 6 bytes
// per window — node, start, length, plan slot, priority, and a sixth byte
// that is ignored (it keeps the stride of the committed corpora). Windows
// sharing a slot form one plan; they freely overlap existing load and the
// other plans (that is the point). Empty windows and windows overlapping an
// earlier window of their own plan on the same node are dropped: the
// critical-works builder cannot produce either (builder.reserve refuses
// both), Calendar.Reserve refuses them, and activate treats that refusal as
// the internal bug it would be. A plan left with no window is dropped.
func decodeCommitInput(data []byte) []*fuzzPlan {
	byIdx := map[int]*fuzzPlan{}
	for off := 0; off+6 <= len(data); off += 6 {
		b := data[off : off+6]
		idx := int(b[3] % 8)
		p, ok := byIdx[idx]
		if !ok {
			p = &fuzzPlan{key: commitKey{seq: idx}, name: fmt.Sprintf("f%d", idx)}
			byIdx[idx] = p
		}
		p.key.prio = int(b[4] % 4)
		node := resource.NodeID(b[0] % 4)
		start := simtime.Time(b[1] % 64)
		w := simtime.Interval{Start: start, End: start + simtime.Time(b[2]%16)}
		ok = !w.Empty()
		for _, q := range p.windows {
			ok = ok && !(q.Node == node && q.Window.Overlaps(w))
		}
		if ok {
			p.windows = append(p.windows, criticalworks.Placement{Task: dag.TaskID(len(p.windows)), Node: node, Window: w})
		}
	}
	out := make([]*fuzzPlan, 0, len(byIdx))
	for _, p := range byIdx {
		if len(p.windows) > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key.seq < out[j].key.seq })
	return out
}

// fuzzWorld builds a VO over four nodes carrying the fixed pre-existing
// load the plans fight over.
func fuzzWorld() *VO {
	nodes := make([]*resource.Node, 4)
	for i := range nodes {
		nodes[i] = resource.NewNode(resource.NodeID(i), fmt.Sprintf("n%d", i), 1, "d")
	}
	env := resource.NewEnvironment(nodes)
	ext := resource.External
	// Fig. 2-shaped background: staggered busy windows per node.
	_ = env.Node(0).Calendar().Reserve(simtime.Interval{Start: 0, End: 10}, ext)
	_ = env.Node(1).Calendar().Reserve(simtime.Interval{Start: 10, End: 20}, ext)
	_ = env.Node(2).Calendar().Reserve(simtime.Interval{Start: 20, End: 30}, ext)
	_ = env.Node(3).Calendar().Reserve(simtime.Interval{Start: 5, End: 15}, ext)
	return NewVO(sim.New(), env, Config{})
}

// offer hands the plan to the VO's one books step, JobManager.activate, as
// a job in flight whose chosen distribution holds exactly the plan's
// windows, and reports whether it was booked.
func (p *fuzzPlan) offer(vo *VO) bool {
	b := dag.NewBuilder(p.name)
	d := &strategy.Distribution{
		Schedule:   &criticalworks.Schedule{Placements: p.windows},
		Level:      1,
		Admissible: true,
	}
	d.Start = p.windows[0].Window.Start
	for i, w := range p.windows {
		b.Task(p.taskName(i), 1, 0) // TaskID i, the window's Task
		d.Start = min(d.Start, w.Window.Start)
		d.Finish = max(d.Finish, w.Window.End)
	}
	job := b.MustBuild()
	aj := &activeJob{
		result:   &JobResult{Job: job},
		strat:    &strategy.Strategy{Job: job, Scheduled: job},
		manager:  vo.managers[0],
		failedAt: -1,
	}
	return aj.manager.activate(aj, d)
}

func (p *fuzzPlan) taskName(i int) string { return fmt.Sprintf("t%d", i) }

// FuzzCommitConflicts feeds adversarial overlapping plans to the commit
// arbiter's ordering and to JobManager.activate, asserting:
//
//   - the collision-resolution order is total (any two distinct keys
//     compare in exactly one direction) and the sort is deterministic,
//   - offering the same plan set twice over identical worlds gives
//     identical outcomes and identical final books (determinism per seed),
//   - the books stay pairwise disjoint and no plan is booked in part,
//   - two booked plans never hold overlapping windows,
//   - nothing ever panics, whatever the bytes say.
func FuzzCommitConflicts(f *testing.F) {
	// Fig. 2-like corpus: three plans whose windows chain across nodes
	// 0–2 at the worked example's window boundaries.
	f.Add([]byte{
		0, 10, 10, 0, 2, 1,
		1, 20, 10, 0, 2, 1,
		1, 20, 10, 1, 1, 0,
		2, 30, 10, 1, 1, 4,
		0, 10, 5, 2, 3, 2,
	})
	// Fig. 4-like corpus: dense same-node contention — every plan wants
	// the same early window on node 3 plus a private tail.
	f.Add([]byte{
		3, 15, 10, 0, 0, 0,
		3, 15, 10, 1, 1, 1,
		3, 15, 10, 2, 2, 2,
		3, 40, 8, 0, 0, 3,
		3, 50, 8, 1, 1, 4,
		3, 60, 8, 2, 2, 5,
	})
	// Degenerate windows: empty ones (a plan left with nothing) and a
	// window duplicated inside one plan.
	f.Add([]byte{
		0, 5, 0, 0, 0, 0,
		0, 5, 0, 0, 0, 0,
		2, 63, 15, 7, 3, 4,
		2, 63, 15, 7, 3, 4,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		plans := decodeCommitInput(data)
		if len(plans) == 0 {
			return
		}

		// Totality of the arbiter's order.
		for i := range plans {
			for j := range plans {
				if i == j {
					continue
				}
				ab := commitBefore(plans[i].key, plans[j].key)
				ba := commitBefore(plans[j].key, plans[i].key)
				if ab && ba {
					t.Fatalf("order not antisymmetric: %+v vs %+v", plans[i].key, plans[j].key)
				}
				if plans[i].key != plans[j].key && !ab && !ba {
					t.Fatalf("order not total: %+v vs %+v", plans[i].key, plans[j].key)
				}
			}
		}

		run := func() ([]bool, map[resource.NodeID][]resource.Reservation) {
			vo := fuzzWorld()
			order := make([]int, len(plans))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool {
				return commitBefore(plans[order[a]].key, plans[order[b]].key)
			})
			committed := make([]bool, len(plans))
			for _, i := range order {
				committed[i] = plans[i].offer(vo)
			}
			books := map[resource.NodeID][]resource.Reservation{}
			for _, n := range vo.env.Nodes() {
				books[n.ID] = n.Calendar().Reservations()
			}
			return committed, books
		}

		c1, b1 := run()
		c2, b2 := run()
		if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(b1, b2) {
			t.Fatal("identical worlds, identical plans, different outcomes")
		}

		// Books disjoint; plans all-or-nothing.
		for id, res := range b1 {
			for i := 1; i < len(res); i++ {
				if res[i-1].Interval.Overlaps(res[i].Interval) {
					t.Fatalf("node %d books overlap after arbitration: %v / %v", id, res[i-1], res[i])
				}
			}
		}
		for i, p := range plans {
			for k, w := range p.windows {
				got := false
				for _, r := range b1[w.Node] {
					if r.Interval == w.Window && r.Owner == (resource.Owner{Job: p.name, Task: p.taskName(k)}) {
						got = true
					}
				}
				if c1[i] && !got {
					t.Fatalf("plan %d booked but window %v missing", i, w)
				}
				if !c1[i] && got {
					t.Fatalf("plan %d refused but window %v applied", i, w)
				}
			}
		}
		// Winners never overlap each other.
		for i := range plans {
			for j := i + 1; j < len(plans); j++ {
				if !c1[i] || !c1[j] {
					continue
				}
				for _, a := range plans[i].windows {
					for _, b := range plans[j].windows {
						if a.Node == b.Node && a.Window.Overlaps(b.Window) {
							t.Fatalf("plans %d and %d both booked overlapping windows", i, j)
						}
					}
				}
			}
		}
	})
}
