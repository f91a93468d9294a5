package criticalworks

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// dpVariant is one setting of the axes the DP's choices depend on beyond the
// job, the nodes and the books.
type dpVariant struct {
	obj  Objective
	pol  data.Policy
	mode CollisionMode
}

func (v dpVariant) String() string {
	return fmt.Sprintf("obj%d/%v/mode%d", v.obj, v.pol, v.mode)
}

// dpVariants crosses both objectives, the three data policies and both
// collision modes.
func dpVariants() []dpVariant {
	var out []dpVariant
	for _, obj := range []Objective{MinFinish, MinCost} {
		for _, pol := range policies {
			for _, mode := range []CollisionMode{ResolveReallocate, ResolveDelay} {
				out = append(out, dpVariant{obj, pol, mode})
			}
		}
	}
	return out
}

// matchDPReference builds the job with Build and with the reference —
// refBuild placing every critical work with refPlaceChain, the DP that
// probes once per (cell, predecessor) — and reports a difference in any
// Schedule field but Evaluations, in the error, or an Evaluations count
// above the reference's. It returns both counts.
func matchDPReference(env *resource.Environment, cals Calendars, job *dag.Job, opt Options) (got, want int64, err error) {
	gotS, gotErr := Build(env, cals, job, opt)
	wantS, _, _, wantErr := refBuildWith(refPlaceChain, env, cals.Clone(), job, opt)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return 0, 0, fmt.Errorf("err = %v, reference %v", gotErr, wantErr)
	}
	if (gotS == nil) != (wantS == nil) {
		return 0, 0, fmt.Errorf("schedule = %v, reference %v", gotS, wantS)
	}
	if gotS == nil {
		return 0, 0, nil // an internal error, the same on both sides
	}
	g, w := *gotS, *wantS
	got, want = g.Evaluations, w.Evaluations
	g.Evaluations, w.Evaluations = 0, 0
	if !reflect.DeepEqual(g, w) {
		return got, want, fmt.Errorf("schedule differs from the reference:\n got %+v\nwant %+v", g, w)
	}
	if got > want {
		return got, want, fmt.Errorf("%d evaluations, the reference %d", got, want)
	}
	return got, want, nil
}

// wideCorpus is the DP's corpus at the widths the workloads plan over:
// randomJob's jobs on 20–30 nodes, sized like §4's grids, drawn from two or
// four tiers, so that many nodes charge the same, hand a predecessor's data
// on at the same key and share the est clamp. Three seeds in four book
// every node densely; the rest lightly.
func wideCorpus() []cowCase {
	var out []cowCase
	for seed := uint64(1); seed <= 48; seed++ {
		r := rng.New(20261017 + seed)
		perfs := [][]float64{{1.0, 0.5}, {1.0, 0.8, 0.5, 0.25}}[seed%2]
		nodes := make([]*resource.Node, r.IntBetween(20, 30))
		for i := range nodes {
			nodes[i] = resource.NewNode(resource.NodeID(i), "n", perfs[r.Intn(len(perfs))], "d")
		}
		env := resource.NewEnvironment(nodes)
		job := randomJob(r)
		job = job.WithDeadline(job.Deadline * simtime.Time([]int{10, 6, 4}[seed%3]) / 10)
		cals := EmptyCalendars(env)
		load := r.Intn(2 * len(nodes))
		if seed%4 != 0 {
			load = 8 * len(nodes)
		}
		for i := 0; i < load; i++ {
			n := resource.NodeID(r.Intn(len(nodes)))
			st := simtime.Time(r.Intn(int(job.Deadline) + 10))
			_ = cals[n].Reserve(simtime.Interval{Start: st, End: st + simtime.Time(r.IntBetween(1, 6))}, resource.External)
		}
		opt := Options{Data: data.Model{Storage: resource.NodeID(r.Intn(len(nodes)))}}
		out = append(out, cowCase{name: fmt.Sprintf("wide/%d", seed), job: job, env: env, cals: cals, opt: opt})
	}
	return out
}

// TestDPMatchesReference pins runDP to the per-predecessor DP it replaced,
// over TestBuildMatchesCloneReference's corpus and wideCorpus crossed with
// dpVariants: every field of every schedule — placements, collisions and
// their holders, costs, the partial schedule of a failed build — and every
// error are the reference's; Evaluations, the probes performed, is never
// above the reference's in any case and below it in total.
func TestDPMatchesReference(t *testing.T) {
	var got, want int64
	variants := dpVariants()
	corpus := append(cowCorpus(), wideCorpus()...)
	for _, tc := range corpus {
		for _, v := range variants {
			opt := tc.opt
			opt.Objective, opt.Mode, opt.Data.Policy = v.obj, v.mode, v.pol
			g, w, err := matchDPReference(tc.env, tc.cals, tc.job, opt)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, v, err)
			}
			got, want = got+g, want+w
		}
	}
	t.Logf("%d cases × %d variants: %d evaluations, the reference %d (%.1f×)",
		len(corpus), len(variants), got, want, float64(want)/float64(got))
	if got >= want {
		t.Errorf("%d evaluations in total, the reference %d: one probe per cell saved nothing", got, want)
	}
}

// FuzzDPMatchesReference holds runDP to the reference DP on the inputs
// FuzzBuildSchedule decodes, under every dpVariant: the same schedule and
// error, and no more Evaluations.
func FuzzDPMatchesReference(f *testing.F) {
	f.Add(fig2SeedBytes())
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{2, 3, 3, 0, 0, 0, 1, 0, 1, 20, 2, 1, 1, 2, 1, 5, 9})
	f.Add(hopelessSeedBytes(0, 0))
	f.Add(hopelessSeedBytes(1, 1))

	variants := dpVariants()
	f.Fuzz(func(t *testing.T, raw []byte) {
		job, env, cals, opt := decodeFuzzInput(raw)
		for _, v := range variants {
			opt.Objective, opt.Mode, opt.Data.Policy = v.obj, v.mode, v.pol
			if _, _, err := matchDPReference(env, cals, job, opt); err != nil {
				t.Fatalf("%v: %v", v, err)
			}
		}
	})
}

// TestDPBreaksCostTiesByIndex: among predecessors of equal chain cost that
// the probe's hit admits, the lower candidate index wins, as it does in the
// reference DP.
//
// A → B, V(A) = 3, V(B) = 1, base times 1, on three nodes of tier 1: A is
// charged 3 on any of them, B 1. Nodes 0 and 1 are booked from tick 1 and
// node 2 until tick 5, so B can only run on node 2, from 5. A on node 0 and
// A on node 1 both let B start at 2 ≤ 5 and cost 4 with it; A on node 2
// would start B at 7. So under either objective B's cell on node 2 ties
// between A on node 0 and A on node 1, and A goes to node 0. A DP that kept
// the last of the equal-cost predecessors would put A on node 1.
func TestDPBreaksCostTiesByIndex(t *testing.T) {
	b := dag.NewBuilder("tie").Deadline(100)
	a := b.Task("A", 1, 3)
	c := b.Task("B", 1, 1)
	b.Link("AB", a, c, 1, 10)
	job := b.MustBuild()
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "n0", 1.0, "d"),
		resource.NewNode(1, "n1", 1.0, "d"),
		resource.NewNode(2, "n2", 1.0, "d"),
	})
	cals := EmptyCalendars(env)
	for n, iv := range []simtime.Interval{{Start: 1, End: 1000}, {Start: 1, End: 1000}, {Start: 0, End: 5}} {
		if err := cals[resource.NodeID(n)].Reserve(iv, resource.External); err != nil {
			t.Fatal(err)
		}
	}
	for _, obj := range []Objective{MinFinish, MinCost} {
		opt := Options{Objective: obj}
		s, err := Build(env, cals, job, opt)
		if err != nil {
			t.Fatalf("obj %d: %v", obj, err)
		}
		if pa, pb := s.Placements[a], s.Placements[c]; pa.Node != 0 || pb.Node != 2 || pb.Window.Start != 5 || s.Cost != 4 {
			t.Errorf("obj %d: A on node %d, B on node %d at %v, cost %d; want A on node 0, B on node 2 from 5, cost 4",
				obj, pa.Node, pb.Node, pb.Window, s.Cost)
		}
		if _, _, err := matchDPReference(env, cals, job, opt); err != nil {
			t.Errorf("obj %d: %v", obj, err)
		}
	}
}
