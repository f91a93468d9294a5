package criticalworks

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// refBuild is the differential reference for build: the clone-everything,
// unbounded ladder the overlay, the admissibility bound, the calendar bound
// and the DP cut replaced. No level is refused and no margin is skipped:
// all five run until one succeeds; every margin deep-clones the
// whole view, starts from fresh scratch, searches its own first critical
// work and runs buildOnce's chain loop — but after every placeChain the
// chain's placements are reserved for real into the clones and the overlay
// is switched off (its per-node lists emptied, so no probe looks past the
// book). The DP and the collision scan of every later critical work are
// therefore answered by Calendar.FirstFree and Calendar.ConflictWith on a
// materialised merged book alone, which is what builder.firstFree and
// builder.holder claim to compute without building it; the book names a
// collision's holder by its owner, which refHolder maps back to the
// attempt's task or NoHolder. The replica
// sets get the same treatment: every margin keeps a string-keyed
// data.Catalog of its own, commits to it what commitPlaced commits, and after
// every critical work the arena's dense rows must list exactly the
// catalog's replicas — the state the next chain's DP reads by bit test. A
// success adopts the clones into cals. It also reports the index of the
// margin that succeeded, -1 when none did, and that margin's catalog.
//
// Each critical work is placed by builder.placeChain, the DP under test;
// refBuildWith takes the placement step as an argument, and with
// refPlaceChain (dp_ref_test.go) the whole build is the reference.
func refBuild(env *resource.Environment, cals Calendars, job *dag.Job, opt Options) (*Schedule, int, *data.Catalog, error) {
	place := func(_ *resource.Environment, b *builder, chain dag.Chain) error { return b.placeChain(chain) }
	return refBuildWith(place, env, cals, job, opt)
}

// placeFunc places one critical work in the attempt b over env's nodes.
type placeFunc func(env *resource.Environment, b *builder, chain dag.Chain) error

// refBuildWith is refBuild placing each critical work with place.
func refBuildWith(place placeFunc, env *resource.Environment, cals Calendars, job *dag.Job, opt Options) (*Schedule, int, *data.Catalog, error) {
	opt, err := normalize(env, job, opt)
	if err != nil {
		return nil, -1, nil, err
	}
	var firstPartial *Schedule
	var firstErr error
	var evals int64
	for mi, mg := range margins {
		trial := cals.Clone()
		b := new(builder) // never pooled: the reference owes the pool nothing
		b.reset(env, trial, job, opt)
		b.attempt()
		b.computeBounds(mg)
		cat := data.NewCatalog(opt.Data.Policy, opt.Data.Storage)
		sched, err := refPlaceChains(env, b, place, trial, cat)
		evals += b.evals
		if err == nil {
			sched.Evaluations = evals
			for id, c := range trial {
				cals[id] = c
			}
			return sched, mi, cat, nil
		}
		if err != errInfeasible {
			return nil, -1, nil, err
		}
		if firstPartial == nil {
			firstPartial = refPartial(b)
			firstErr = &InfeasibleError{Job: opt.JobName, Task: job.Task(b.failed).Name}
		}
	}
	firstPartial.Evaluations = evals
	return firstPartial, -1, nil, firstErr
}

// refPartial packages the reference's abandoned attempt as a partial
// schedule: the placements and collisions it recorded, no cost accounting.
// Its Placements are nil when no chain was placed, else the dense table with
// the zero Placement for each task left unplaced. Build returns no such
// schedule; a failed build's error carries the counts that the partial of
// the margin-1 attempt must match (sameCounts).
func refPartial(b *builder) *Schedule {
	s := &Schedule{Job: b.job, Collisions: b.collisions(), Evaluations: b.evals}
	if b.nPlaced > 0 {
		s.Placements = b.placements()
	}
	return s
}

// sameCounts reports where a failed build's error departs from want, the
// reference's partial schedule: the collisions its margin-1 attempt
// recorded, and the probes of its ladder, of which a build whose proofs
// spared attempts spends fewer but never more.
func sameCounts(inf *InfeasibleError, want *Schedule) error {
	if inf.Collisions != int64(len(want.Collisions)) {
		return fmt.Errorf("the error counts %d collisions, the reference's margin-1 attempt recorded %d", inf.Collisions, len(want.Collisions))
	}
	if inf.Evaluations > want.Evaluations {
		return fmt.Errorf("the error counts %d evaluations, the reference %d", inf.Evaluations, want.Evaluations)
	}
	return nil
}

// refPlaceChains is builder.buildOnce's chain loop, placing each critical work
// with place and materialising it into trial — the builder's own view — and
// its data placements into cat as soon as it is placed.
func refPlaceChains(env *resource.Environment, b *builder, place placeFunc, trial Calendars, cat *data.Catalog) (*Schedule, error) {
	unplaced := func(id dag.TaskID) bool { return b.placed[id].Window.Empty() }
	for b.nPlaced < b.job.NumTasks() {
		chain, _ := b.job.LongestChain(dag.WeightFunc{}, unplaced)
		// The chain's collisions name their holders as the reference sees
		// them: placeChain, asked on the materialised book with the overlay
		// off, would call every earlier chain's placement NoHolder.
		k := len(b.colls)
		err := place(env, b, chain)
		for i := range b.colls[k:] {
			c := &b.colls[k+i]
			c.Holder, _ = refHolder(b, c.Node, c.Window)
		}
		if err != nil {
			return nil, err
		}
		for _, id := range chain.Tasks {
			p := b.placed[id]
			if err := trial[p.Node].Reserve(p.Window, b.owner(id)); err != nil {
				return nil, fmt.Errorf("reference: the overlay accepted what the book refuses: %w", err)
			}
		}
		clear(b.ownHead) // no node lists an own placement: every probe stops at the book
		for _, e := range b.job.Edges() {
			from, okF := b.placement(e.From)
			to, okT := b.placement(e.To)
			if okF && okT {
				cat.Commit(b.opt.JobName, b.job.Task(e.From).Name, from.Node, to.Node)
			}
		}
		if err := sameReplicas(b, cat); err != nil {
			return nil, fmt.Errorf("reference: after chain %v: %w", chain.Tasks, err)
		}
	}
	return b.finish()
}

// replicas lists the nodes holding a copy of task t's output in the attempt
// b ran last, ascending; nil when none does.
func (b *builder) replicas(t dag.TaskID) []resource.NodeID {
	var out []resource.NodeID
	for w, word := range b.replica[int(t)*b.words : (int(t)+1)*b.words] {
		for ; word != 0; word &= word - 1 {
			out = append(out, resource.NodeID(64*w+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// sameReplicas compares b's replica sets, task by task, with what cat holds
// for b's job under b's options — and through them every answer the policy
// can give:
// for each node as the consumer's end, the transfer time the build would
// read against the catalog's. The sets themselves are compared under active
// replication, the one policy that reads them; a catalog under static storage
// also lists the storage node, which the build has no use for.
func sameReplicas(b *builder, cat *data.Catalog) error {
	opt := b.opt
	for id := 0; id < b.job.NumTasks(); id++ {
		t := dag.TaskID(id)
		name := b.job.Task(t).Name
		if opt.Data.Policy == data.ActiveReplication {
			if got, want := b.replicas(t), cat.Replicas(data.DatasetID{Job: opt.JobName, Dataset: name}); !slices.Equal(got, want) {
				return fmt.Errorf("task %s: the arena lists replicas at %v, the catalog at %v", name, got, want)
			}
		}
		for n := range b.ownHead { // one entry per node
			to := resource.NodeID(n)
			if got, want := b.opt.Data.TransferTime(7, 0, to, b.held(t, to)), cat.TransferTime(opt.JobName, name, 7, 0, to); got != want {
				return fmt.Errorf("task %s → node %d: the arena prices the transfer at %d, the catalog at %d", name, n, got, want)
			}
		}
	}
	return nil
}

// buildHeld is build with the state handed to the caller instead of back to
// the pool, so that a test can read the finished build's replica sets. The
// caller releases it.
func buildHeld(env *resource.Environment, cals Calendars, job *dag.Job, opt Options) (*Schedule, *builder, error) {
	opt, err := normalize(env, job, opt)
	if err != nil {
		return nil, nil, err
	}
	b := builderPool.Get().(*builder)
	b.reset(env, cals, job, opt)
	sched, err := b.run()
	return sched, b, err
}

// policies maps a corpus draw to a data policy, in the order the corpora were
// first drawn in.
var policies = []data.Policy{data.ActiveReplication, data.RemoteAccess, data.StaticStorage}

// applySchedule reserves every placement of s, under Owner{jobName, task
// name}, into a deep copy of cals and returns the copy: the books as they
// stand once the plan is activated. An error means the plan double-books a
// node — against another of its tasks or against what cals already held —
// or holds an empty window. Build publishes nothing into its view, so this
// is how a test looks at a plan on the books.
func applySchedule(cals Calendars, s *Schedule, jobName string) (Calendars, error) {
	out := cals.Clone()
	for _, p := range s.Placements {
		if err := out[p.Node].Reserve(p.Window, resource.Owner{Job: jobName, Task: s.Job.Task(p.Task).Name}); err != nil {
			return nil, fmt.Errorf("task %s on node %d: %w", s.Job.Task(p.Task).Name, p.Node, err)
		}
	}
	return out, nil
}

// bookState is one entry of a view as it was handed to Build.
type bookState struct {
	id  resource.NodeID
	cal *resource.Calendar
	gen uint64
	res []resource.Reservation
}

func recordBooks(cals Calendars) []bookState {
	out := make([]bookState, 0, len(cals))
	for id, c := range cals {
		out = append(out, bookState{id: resource.NodeID(id), cal: c, gen: c.Gen(), res: c.Reservations()})
	}
	return out
}

// checkViewUntouched asserts the read-only contract: whatever the outcome,
// the view is what went in — the same entries pointing at the same
// calendars, and every calendar with the generation and the reservations it
// had.
func checkViewUntouched(t *testing.T, what string, view Calendars, books []bookState) {
	t.Helper()
	if len(view) != len(books) {
		t.Errorf("%s: the view has %d entries, went in with %d", what, len(view), len(books))
	}
	for _, b := range books {
		if view[b.id] != b.cal {
			t.Errorf("%s replaced the view's entry for node %d", what, b.id)
		}
		if b.cal.Gen() != b.gen || !reflect.DeepEqual(b.cal.Reservations(), b.res) {
			t.Errorf("%s mutated the input calendar of node %d (gen %d → %d)", what, b.id, b.gen, b.cal.Gen())
		}
	}
}

// checkSameView asserts two views agree book for book: reservations and
// generation.
func checkSameView(t *testing.T, what string, got, want Calendars) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: view has %d nodes, want %d", what, len(got), len(want))
	}
	for id, w := range want {
		g := got[id]
		if g == nil {
			t.Fatalf("%s: node %d missing from the view", what, id)
		}
		if !reflect.DeepEqual(g.Reservations(), w.Reservations()) {
			t.Errorf("%s: node %d reservations differ:\n got %v\nwant %v", what, id, g.Reservations(), w.Reservations())
		}
		if g.Gen() != w.Gen() {
			t.Errorf("%s: node %d generation = %d, want %d", what, id, g.Gen(), w.Gen())
		}
	}
}

// cowCase is one differential input.
type cowCase struct {
	name string
	job  *dag.Job
	env  *resource.Environment
	cals Calendars
	opt  Options // Data unset: every run gets pol
	pol  data.Policy
}

// cowCorpus is the fuzz and property corpus of this package widened along
// the axes the attempt views depend on: the FuzzBuildSchedule seeds and
// random byte strings through its decoder (both modes, both objectives),
// and the property tests' random environments (randomEnv, randomJob) under
// all three data policies with empty, light and dense books and deadlines
// from generous to hopeless.
func cowCorpus() []cowCase {
	var out []cowCase
	add := func(name string, raw []byte) {
		job, env, cals, opt := decodeFuzzInput(raw)
		out = append(out, cowCase{name: name, job: job, env: env, cals: cals, opt: opt, pol: policies[len(raw)%3]})
	}
	add("fuzz/fig2", fig2SeedBytes())
	add("fuzz/empty", nil)
	add("fuzz/zero", []byte{0})
	add("fuzz/seed3", []byte{2, 3, 3, 0, 0, 0, 1, 0, 1, 20, 2, 1, 1, 2, 1, 5, 9})
	r := rng.New(20260928)
	for i := 0; i < 300; i++ {
		buf := make([]byte, r.IntBetween(8, 72))
		for j := range buf {
			buf[j] = byte(r.Intn(256))
		}
		add(fmt.Sprintf("fuzz/rand%d", i), buf)
	}
	for seed := uint64(1); seed <= 600; seed++ {
		r := rng.New(seed)
		env := randomEnv(r)
		job := randomJob(r)
		// randomJob's deadline is generous; tighten it on two thirds of
		// the seeds so later margins and outright infeasibility occur.
		job = job.WithDeadline(job.Deadline * simtime.Time([]int{10, 5, 3}[seed%3]) / 10)
		cals := EmptyCalendars(env)
		var load int
		switch seed % 4 {
		case 1, 2:
			load = r.Intn(4)
		case 3:
			load = 8 * env.NumNodes() // dense books
		}
		for i := 0; i < load; i++ {
			n := resource.NodeID(r.Intn(env.NumNodes()))
			st := simtime.Time(r.Intn(int(job.Deadline) + 10))
			_ = cals[n].Reserve(simtime.Interval{Start: st, End: st + simtime.Time(r.IntBetween(1, 6))}, resource.External)
		}
		opt := Options{Objective: Objective(r.Intn(2))}
		if r.Bool(0.2) {
			opt.Mode = ResolveDelay
		}
		out = append(out, cowCase{name: fmt.Sprintf("rand/%d", seed), job: job, env: env, cals: cals, opt: opt, pol: policies[r.Intn(3)]})
	}
	return out
}

// TestBuildMatchesCloneReference pins the overlay build to the
// materialising reference, over the whole corpus: a success's schedule
// (placements, collisions with their holders, costs) is identical in every
// field, a failure returns no schedule and an error whose counts match the
// reference's partial one (sameCounts: the margin-1 attempt's collisions,
// and never more probes), and the replica sets the finished build leaves in
// its arena are the reference catalog's; the plan applied to the books gives the
// reference's materialised books, reservations and generations; and after
// every outcome the view is untouched — every entry the pointer that went
// in, every book with the generation and reservations that went in.
//
// It is also the oracle of the ladder's early exits. Where a proof about the
// first critical work refused a build (InfeasibleError.FirstWork), the
// unbounded reference ladder must have ended infeasible with the same error
// text, no placement and no collision; where the admissibility bound did,
// nothing was probed. Evaluations falls below the reference's by the probes
// the refusals and the cuts spared, and by nothing else: the build runs the
// reference's DP, so where neither fires the counts are equal.
func TestBuildMatchesCloneReference(t *testing.T) {
	var atFirst, atLater, hopeless, proved, ladderInfeasible int
	var savedProbes int64
	for _, tc := range cowCorpus() {
		opt := tc.opt
		opt.Data.Policy = tc.pol
		refView := tc.cals.Clone()
		want, margin, refCat, wantErr := refBuild(tc.env, refView, tc.job, opt)

		// The build under test plans on the corpus books themselves.
		books := recordBooks(tc.cals)
		got, arena, err := buildHeld(tc.env, tc.cals, tc.job, opt)
		checkViewUntouched(t, tc.name+": Build", tc.cals, books)

		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s: err = %v, reference %v", tc.name, err, wantErr)
		}
		var inf *InfeasibleError
		errors.As(err, &inf)
		if inf != nil && inf.FirstWork && (len(want.Placements) != 0 || len(want.Collisions) != 0) {
			t.Fatalf("%s: a proof refused a build whose reference ladder got somewhere: %+v", tc.name, want)
		}
		switch {
		case err == nil:
			// A success ran every attempt the reference ran.
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: schedule differs from the reference:\n got %+v\nwant %+v", tc.name, got, want)
			}
		case inf != nil:
			if got != nil {
				t.Fatalf("%s: a failed build returned a schedule: %+v", tc.name, got)
			}
			if inf.Hopeless && inf.Evaluations != 0 {
				t.Errorf("%s: refused build reports %d evaluations, want 0", tc.name, inf.Evaluations)
			}
			if cerr := sameCounts(inf, want); cerr != nil {
				t.Fatalf("%s: %v", tc.name, cerr)
			}
			savedProbes += want.Evaluations - inf.Evaluations
		case got != nil || want != nil:
			t.Fatalf("%s: schedule %v, reference %v", tc.name, got, want)
		}
		if err == nil {
			if rerr := sameReplicas(arena, refCat); rerr != nil {
				t.Errorf("%s: the finished build's replica sets differ from the reference: %v", tc.name, rerr)
			}
			applied, aerr := applySchedule(tc.cals, got, tc.job.Name)
			if aerr != nil {
				t.Fatalf("%s: the plan does not fit the books it was built on: %v", tc.name, aerr)
			}
			checkSameView(t, tc.name, applied, refView)
		}

		if arena != nil {
			arena.release()
		}

		switch {
		case margin == 0:
			atFirst++
		case margin > 0:
			atLater++
		case inf != nil && inf.Hopeless:
			hopeless++
		case inf != nil && inf.FirstWork:
			proved++
		default:
			ladderInfeasible++
		}
	}
	regimes := fmt.Sprintf("%d margin-1 successes, %d later-margin successes, %d refused by the admissibility bound, %d refused after margin 1 by the DP cut or the calendar bound, %d infeasible by the ladder (%d reference probes spared)",
		atFirst, atLater, hopeless, proved, ladderInfeasible, savedProbes)
	t.Log("regimes: " + regimes)
	if atFirst == 0 || atLater == 0 || hopeless == 0 || proved == 0 || ladderInfeasible == 0 {
		t.Fatalf("corpus misses a regime: %s", regimes)
	}
}

// layeredFixture is a job of the given number of levels, width tasks per
// level and every task feeding every task of the next level, over nodes
// nodes across all four tiers, each book holding 60 background reservations
// with 3-tick gaps between them.
func layeredFixture(levels, width, nodes int, deadline simtime.Time) (*resource.Environment, Calendars, *dag.Job) {
	b := dag.NewBuilder("levels").Deadline(deadline)
	for l := 0; l < levels; l++ {
		for w := 0; w < width; w++ {
			b.Task(fmt.Sprintf("L%dT%d", l, w), simtime.Time(2+w), int64(20+10*w))
		}
	}
	for l := 0; l+1 < levels; l++ {
		for from := 0; from < width; from++ {
			for to := 0; to < width; to++ {
				b.Edge(fmt.Sprintf("D%d-%d%d", l, from, to), fmt.Sprintf("L%dT%d", l, from), fmt.Sprintf("L%dT%d", l+1, to), 1, 10)
			}
		}
	}
	perfs := []float64{1.0, 0.5, 0.33, 0.25}
	ns := make([]*resource.Node, nodes)
	for i := range ns {
		ns[i] = resource.NewNode(resource.NodeID(i), fmt.Sprintf("n%d", i), perfs[i%len(perfs)], "d")
	}
	env := resource.NewEnvironment(ns)
	cals := EmptyCalendars(env)
	for id, c := range cals {
		for k := 0; k < 60; k++ {
			start := simtime.Time(k*10 + int(id)%7)
			if err := c.Reserve(simtime.Interval{Start: start, End: start + 7}, resource.External); err != nil {
				panic(err)
			}
		}
	}
	return env, cals, b.MustBuild()
}

// denseFixture is the allocation guard's fixed input: a 5-level job, two
// tasks per level, over 24 nodes.
func denseFixture(deadline simtime.Time) (*resource.Environment, Calendars, *dag.Job) {
	return layeredFixture(5, 2, 24, deadline)
}

// denseRegimes are the deadlines and options that put denseFixture's job in
// each of the regimes the service lives in: a plan found at margin 1; a job
// the admissibility bound refuses before the ladder (the critical path
// alone, 19 ticks, overruns the deadline); a job the bound must let through —
// its first chain fits the deadline on empty calendars — that no margin can
// place in the dense books (margin 1's DP finds no placement for the first
// critical work, and the DP cut spares the other four attempts); a plan found
// at margin 1.5 after margin 1 placed the first critical work and failed a
// later one (static storage prices every transfer through node 0); and, under
// the delay baseline, a job whose margins 1 and 1.5 each place the first
// critical work and fail a later one, and whose later margins fail the first,
// so all five attempts run. budget is TestBuildAllocationBudget's, which
// builds with opt; the other tests that walk the regimes take the deadline
// alone, with options of their own.
var denseRegimes = []struct {
	name     string
	deadline simtime.Time
	opt      Options
	feasible bool
	hopeless bool
	budget   float64
}{
	{"feasible", 400, Options{}, true, false, 4},
	{"refused", 12, Options{}, false, true, 2},
	{"ladder-infeasible", 22, Options{}, false, false, 2},
	{"margin-1.5", 40, Options{Data: data.Model{Policy: data.StaticStorage}}, true, false, 4},
	{"ladder-placed", 50, Options{Mode: ResolveDelay}, false, false, 2},
}

// TestBuildAllocationBudget pins what one Build allocates on the dense
// fixture in the regimes of denseRegimes. A build allocates only what it
// returns — a success its Schedule, its Placements (one slice) and its
// Collisions at their exact length, a failure its one error — plus the
// candidates normalize defaults: a failed attempt allocates nothing, so the
// two builds whose ladder runs past a failed attempt read what a build
// without one reads. The estimate table is a view of the job, and its working
// memory, replica sets and collisions-so-far included, is a pooled arena
// (TestBuildAllocsFig2 pins the count exactly, with nothing defaulted). The
// budgets are the readings. Under -race sync.Pool drops a quarter of the Puts
// on purpose and the next build makes a new arena, so the pin skips there and
// runs in CI's step without it. With an error made by every failed attempt
// the last two read 5 and 6. With a failed build returning a partial
// Schedule beside its error the two failures read 3 and 3. With a
// two-allocation estimate table made per build, and the errors.As target
// that tested each failed attempt's error escaping to the heap, the three
// read 6, 5 and 7. With Placements a map the three read 9,
// 6 and 8: the map took three allocations, and each failure returned an
// empty one. Before the DP cut the third read 20: all five attempts ran, each
// leaving an error behind. With a
// string-keyed catalog cloned per attempt and a collision slice made per
// colliding attempt the three read
// 18, 9 and 33; with a map per dataset in the catalog the first read 35; with
// working memory made per build on top of that the three read 63, 22 and 56;
// with first-write book clones and a result slice per DP phase the first read
// 90; before the bound, the dense placed slice and the per-generation table
// the first two read 99 and 110; the clone-per-margin build with allocating
// edge walks before that, 4942 and 977. A breach means a build has started
// making working memory again instead of borrowing it, an attempt copies
// state it only reads or makes an error it drops, or the DP's inner loop or
// its phases allocate.
func TestBuildAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the pin runs in CI's step without -race")
	}
	for _, tc := range denseRegimes {
		env, cals, job := denseFixture(tc.deadline)
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			_, err = Build(env, cals, job, tc.opt)
		})
		var inf *InfeasibleError
		if (err == nil) != tc.feasible || (errors.As(err, &inf) && inf.Hopeless) != tc.hopeless {
			t.Fatalf("%s: Build err = %v, want feasible = %v, refused by the bound = %v", tc.name, err, tc.feasible, tc.hopeless)
		}
		t.Logf("%s: %.0f allocs per Build", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocs per Build, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// copySchedule deep-copies what a Schedule owns (the job is shared and
// immutable).
func copySchedule(s *Schedule) *Schedule {
	if s == nil {
		return nil
	}
	cp := *s
	cp.Placements = slices.Clone(s.Placements)
	cp.Collisions = slices.Clone(s.Collisions)
	return &cp
}

// TestArenaReuseLeavesResultsAlone: a build's result must own its memory.
// Build job A — in each regime of denseRegimes, and on a one-node
// environment where the ladder gives up with a critical work placed (the
// reference's partial schedule says so), so the error counts the
// collisions the margin-1 attempt recorded in the arena — and deep-copy
// what came back. Then build a larger job on a larger environment and a
// smaller one on a smaller, in every regime, on the same goroutine —
// which takes the arena A's build returned, grows it and overwrites it. A's
// result, its collisions copied or counted out of that arena, still equals
// the copy.
//
// The other direction: an arena belongs to one build at a time. A second
// build of A keeps its arena (buildHeld) while the later builds run — on
// this goroutine and, in the concurrent round, on three others taking and
// returning arenas all the while — and the finished build's replica sets
// still answer what they answered when it finished.
//
// The whole thing then runs on four goroutines at once, the way the placer
// workers use the pool; CI runs it under -race.
func TestArenaReuseLeavesResultsAlone(t *testing.T) {
	type fixture struct {
		name                 string
		levels, width, nodes int
		deadline             simtime.Time
		partialTasks         int // placements and collisions of the failed build's margin-1 attempt
	}
	var as []fixture
	for _, r := range denseRegimes {
		as = append(as, fixture{r.name, 5, 2, 24, r.deadline, 0})
	}
	as = append(as, fixture{"partial with a chain placed", 5, 2, 1, 60, 5})
	run := func(t *testing.T) {
		for _, a := range as {
			env, cals, job := layeredFixture(a.levels, a.width, a.nodes, a.deadline)
			opt := Options{Data: data.Model{Policy: data.ActiveReplication}}
			sched, err := Build(env, cals, job, opt)
			var inf *InfeasibleError
			if err != nil {
				if !errors.As(err, &inf) || sched != nil || inf.Collisions != int64(a.partialTasks) {
					t.Errorf("%s: Build err = %v (%+v), schedule %+v", a.name, err, inf, sched)
					return
				}
				if want, _, _, _ := refBuild(env, cals.Clone(), job, opt); placedTasks(want) != a.partialTasks {
					t.Errorf("%s: the reference's margin-1 attempt placed %d tasks, want %d", a.name, placedTasks(want), a.partialTasks)
					return
				}
			}
			keep := copySchedule(sched)
			var keepErr InfeasibleError
			if inf != nil {
				keepErr = *inf
			}
			again, arena, againErr := buildHeld(env, cals, job, opt)
			if !reflect.DeepEqual(again, sched) || !reflect.DeepEqual(againErr, err) {
				t.Errorf("%s: the same build in a held arena differs:\n got %+v, %v\nwant %+v, %v", a.name, again, againErr, sched, err)
			}
			keepReplicas := make([][]resource.NodeID, job.NumTasks())
			for id := range keepReplicas {
				keepReplicas[id] = arena.replicas(dag.TaskID(id))
			}
			if err == nil && keepReplicas[0] == nil {
				t.Errorf("%s: a finished build under active replication holds no replica of its first task's output", a.name)
			}

			for _, b := range denseRegimes {
				for _, size := range []struct{ levels, width, nodes int }{{9, 3, 40}, {2, 1, 3}} {
					envB, calsB, jobB := layeredFixture(size.levels, size.width, size.nodes, b.deadline*simtime.Time(size.levels)/5)
					var infB *InfeasibleError
					if _, err := Build(envB, calsB, jobB, opt); err != nil && !errors.As(err, &infB) {
						t.Errorf("%s: Build err = %v", b.name, err)
						return
					}
				}
			}
			if !reflect.DeepEqual(sched, keep) {
				t.Errorf("%s: later builds changed a returned schedule:\n got %+v\nwant %+v", a.name, sched, keep)
			}
			if inf != nil && *inf != keepErr {
				t.Errorf("%s: later builds changed a returned error:\n got %+v\nwant %+v", a.name, *inf, keepErr)
			}
			for id, want := range keepReplicas {
				if got := arena.replicas(dag.TaskID(id)); !slices.Equal(got, want) {
					t.Errorf("%s: later builds changed a held arena's replica sets: task %d at %v, was %v", a.name, id, got, want)
				}
			}
			arena.release()
		}
	}
	run(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(t)
		}()
	}
	wg.Wait()
}

// TestReleasedArenaHoldsNothing: a pooled build state outlives the engine
// event its build ran in, so it must come back holding no job, no view (live
// *resource.Calendars) and no options, so no context, candidates or
// registry. The rest of the state is integers — the graph tables as the
// build reads them, and collisions, which hold no pointer
// (TestCollisionHoldsNoPointers) — so it names nothing. The state taken
// right after a build is the one that build returned — sync.Pool hands a
// goroutine its own last Put first — except that under -race a quarter of
// the Puts are dropped; the test retries until it has seen enough used ones.
func TestReleasedArenaHoldsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	used := 0
	for try := 0; try < 200 && used < 9; try++ {
		tc := denseRegimes[try%len(denseRegimes)]
		env, cals, job := denseFixture(tc.deadline)
		_, _ = Build(env, cals, job, Options{Ctx: ctx, Data: data.Model{Policy: data.ActiveReplication}})
		b := builderPool.Get().(*builder)
		if cap(b.bestUp) == 0 {
			continue // a fresh state: the pool dropped or lost the build's
		}
		used++
		if b.job != nil {
			t.Errorf("%s: a released state still holds job %q", tc.name, b.job.Name)
		}
		if b.cals != nil {
			t.Errorf("%s: a released state still holds a view of %d books", tc.name, len(b.cals))
		}
		if !reflect.ValueOf(b.opt).IsZero() {
			t.Errorf("%s: a released state still holds its options: %+v", tc.name, b.opt)
		}
	}
	if used < 9 {
		t.Fatalf("took a used arena only %d times in 200 builds", used)
	}
}
