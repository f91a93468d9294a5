package criticalworks

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// buildIn is Build's build in the state b rather than one from the pool,
// with no telemetry: it resets b to job, runs the build, and leaves b as
// release leaves a state, without putting it back.
func buildIn(b *builder, env *resource.Environment, cals Calendars, job *dag.Job, opt Options) (*Schedule, error) {
	opt, err := normalize(env, job, opt)
	if err != nil {
		return nil, err
	}
	b.reset(env, cals, job, opt)
	sched, err := b.run()
	b.job, b.cals, b.opt, b.parentSpan = nil, nil, Options{}, 0
	return sched, err
}

// buildAt is buildIn, traced, and also returns the margin of the ladder's
// last attempt as its criticalworks.attempt span reports it; 0 when it made
// none.
func buildAt(b *builder, env *resource.Environment, cals Calendars, job *dag.Job, opt Options) (*Schedule, float64, error) {
	var spans bytes.Buffer
	opt.Spans = telemetry.NewTracer(&spans)
	sched, err := buildIn(b, env, cals, job, opt)
	var margin float64
	for sc := bufio.NewScanner(&spans); sc.Scan(); {
		var sp struct {
			Name  string
			Attrs struct {
				MarginPct int64 `json:"margin_pct"`
			}
		}
		if jerr := json.Unmarshal(sc.Bytes(), &sp); jerr != nil {
			panic(jerr)
		}
		if sp.Name == "criticalworks.attempt" {
			margin = float64(sp.Attrs.MarginPct) / 100
		}
	}
	return sched, margin, err
}

// sameOutcome reports where a build in a reused arena departs from the same
// build in a fresh one: any field of the Schedule, or of the error,
// Evaluations and Collisions included.
func sameOutcome(got *Schedule, gotErr error, want *Schedule, wantErr error) error {
	if !reflect.DeepEqual(gotErr, wantErr) {
		return fmt.Errorf("err = %#v, in a fresh arena %#v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("schedule differs from a fresh arena's:\n got %+v\nwant %+v", got, want)
	}
	return nil
}

// TestSharedArenaMatchesFreshArenas: a pooled arena serves one build after
// another, and what a build leaves in it — the graph tables, the first
// critical work, the bounds at the margin its ladder ended at, the tier
// table, the overlay and the replica rows — must not reach the next. Builds through one arena must return exactly what builds in fresh
// arenas return.
//
// The corpus is the Fig. 4 one, on the experiments' two-domain
// environment with background load on its books. Each job is built level by
// level, as a strategy sweeps them (candidates of tier ≥ the level), under
// both objectives and a data policy by job, and jobs take turns in the
// arena — A, B, then A again — so the arena sees a graph come back after
// another one. Each level is built three ways: with its candidates in ID
// order, reversed, and without the last one, so the candidate a build
// names last is not the same node every time, and a table entry of that
// candidate left over from an earlier build is seen. Then a build that
// ends at margin 3 is followed by a margin-1 build of the same job, which
// must compute the margin-1 bounds again rather than read the margin-3
// ones the arena holds.
func TestSharedArenaMatchesFreshArenas(t *testing.T) {
	cfg := workload.Default(1)
	cfg.DeadlineFactor = 1.8
	cfg.MinWidth, cfg.MaxWidth = 2, 3
	cfg.MinLayers, cfg.MaxLayers = 3, 4
	cfg.PipelineProb, cfg.MaxPipeline = 0.6, 3
	gen := workload.New(cfg)
	env := gen.Environment(2)
	cals := EmptyCalendars(env)
	for id, c := range cals {
		for k := 0; k < 6; k++ {
			start := simtime.Time(k*20 + int(id)%5)
			if err := c.Reserve(simtime.Interval{Start: start, End: start + 4}, resource.External); err != nil {
				t.Fatal(err)
			}
		}
	}
	levels := func(level resource.Tier) []resource.NodeID {
		var ids []resource.NodeID
		for _, n := range env.Nodes() {
			if n.Tier() >= level {
				ids = append(ids, n.ID)
			}
		}
		return ids
	}

	shared := new(builder)
	var builds, failed int
	sweep := func(job *dag.Job, i int) {
		for _, obj := range []Objective{MinFinish, MinCost} {
			for level := resource.Tier(1); level <= resource.NumTiers; level++ {
				cands := levels(level)
				if len(cands) == 0 {
					continue
				}
				reversed := slices.Clone(cands)
				slices.Reverse(reversed)
				for _, v := range []struct {
					name  string
					cands []resource.NodeID
				}{{"in ID order", cands}, {"reversed", reversed}, {"without the last", cands[:len(cands)-1]}} {
					if len(v.cands) == 0 {
						continue
					}
					opt := Options{Objective: obj, Candidates: v.cands, Data: data.Model{Policy: policies[i%len(policies)]}}
					got, gotErr := buildIn(shared, env, cals, job, opt)
					want, wantErr := buildIn(new(builder), env, cals, job, opt)
					if err := sameOutcome(got, gotErr, want, wantErr); err != nil {
						t.Fatalf("job %d, objective %d, level %d, candidates %s: %v", i, obj, level, v.name, err)
					}
					builds++
					if gotErr != nil {
						failed++
					}
				}
			}
		}
	}
	// Partners share their task and edge counts where the corpus allows, so
	// that every table the arena grows is refilled, not regrown, when the
	// other graph comes in.
	jobs := make([]int, 40)
	for i := range jobs {
		jobs[i] = i
	}
	shape := func(i int) (int, int) { j := gen.Job(i); return j.NumTasks(), j.NumEdges() }
	slices.SortStableFunc(jobs, func(a, b int) int {
		na, ma := shape(a)
		nb, mb := shape(b)
		return cmp.Or(cmp.Compare(na, nb), cmp.Compare(ma, mb))
	})
	sameShape := 0
	for k := 0; k+1 < len(jobs); k += 2 {
		i, j := jobs[k], jobs[k+1]
		a, b := gen.Job(i), gen.Job(j)
		if a.NumTasks() == b.NumTasks() && a.NumEdges() == b.NumEdges() {
			sameShape++
		}
		sweep(a, i)
		sweep(b, j)
		sweep(a, i)
	}
	if sameShape == 0 {
		t.Fatal("no two partners share their task and edge counts")
	}
	t.Logf("%d builds through one arena, %d of them failed; %d pairs of partners share their shape", builds, failed, sameShape)
	if failed == 0 || failed == builds {
		t.Fatalf("%d of %d builds failed: the corpus misses successes or failures", failed, builds)
	}

	// A build whose ladder ended at margin 3, then builds of the same job,
	// whose ladders start at margin 1: the same build again, and one with a
	// roomier deadline on empty books.
	pairs := 0
	for _, tc := range cowCorpus() {
		opt := tc.opt
		opt.Data.Policy = tc.pol
		probe := new(builder)
		if _, margin, _ := buildAt(probe, tc.env, tc.cals, tc.job, opt); margin != 3 {
			continue
		}
		for _, again := range []struct {
			job  *dag.Job
			cals Calendars
		}{{tc.job, tc.cals}, {tc.job.WithDeadline(4 * tc.job.Deadline), EmptyCalendars(tc.env)}} {
			got, gotErr := buildIn(probe, tc.env, again.cals, again.job, opt)
			want, wantErr := buildIn(new(builder), tc.env, again.cals, again.job, opt)
			if err := sameOutcome(got, gotErr, want, wantErr); err != nil {
				t.Fatalf("%s: a build after one that ended at margin 3: %v", tc.name, err)
			}
			buildIn(probe, tc.env, tc.cals, tc.job, opt) // back to margin 3
		}
		pairs++
	}
	t.Logf("%d jobs built again after a build that ended at margin 3", pairs)
	if pairs == 0 {
		t.Fatal("the corpus has no build that ends at margin 3")
	}
}
