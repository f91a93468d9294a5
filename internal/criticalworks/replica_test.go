package criticalworks

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// TestDenseReplicasMatchCatalog is the differential for the arena's replica
// sets: random sequences of commits and transfer-time queries, under all
// three policies, answer from the dense rows exactly as from a string-keyed
// data.Catalog given the same commits — on environments of one word per row
// and of several (node IDs past 64 and past 128), with the storage node
// anywhere among them. After the sequence the two are compared whole
// (sameReplicas: every task's set, every task × node answer), and the next
// attempt in the same arena starts with no replica anywhere.
func TestDenseReplicasMatchCatalog(t *testing.T) {
	for _, nodes := range []int{1, 4, 63, 64, 65, 130, 200} {
		for _, pol := range policies {
			for seed := uint64(0); seed < 8; seed++ {
				r := rng.New(seed<<8 | uint64(nodes))
				job := randomJob(r)
				node := func() resource.NodeID {
					if r.Bool(0.5) { // the last word of a row as often as the rest
						return resource.NodeID(nodes - 1 - r.Intn(min(nodes, 3)))
					}
					return resource.NodeID(r.Intn(nodes))
				}
				opt := Options{JobName: "j", Data: data.Model{Policy: pol, Storage: node()}}
				what := fmt.Sprintf("%d nodes, %v, seed %d", nodes, pol, seed)

				b := new(builder)
				b.reset(nil, make(Calendars, nodes), job, opt)
				b.attempt()
				cat := data.NewCatalog(pol, opt.Data.Storage)
				for step := 0; step < 300; step++ {
					producer := dag.TaskID(r.Intn(job.NumTasks()))
					name := job.Task(producer).Name
					from, to := node(), node()
					if r.Bool(0.3) {
						b.commit(producer, from, to)
						cat.Commit("j", name, from, to)
						continue
					}
					base := simtime.Time(r.Intn(12))
					got := b.opt.Data.TransferTime(base, from, to, b.held(producer, to))
					if want := cat.TransferTime("j", name, base, from, to); got != want {
						t.Fatalf("%s, step %d: transfer of %s's output %d→%d at base %d costs %d, the catalog says %d",
							what, step, name, from, to, base, got, want)
					}
				}
				if err := sameReplicas(b, cat); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				b.attempt()
				if err := sameReplicas(b, data.NewCatalog(pol, opt.Data.Storage)); err != nil {
					t.Fatalf("%s: a new attempt inherited replicas: %v", what, err)
				}
			}
		}
	}
}

// TestBuildOnMultiWordReplicaRows builds on a 130-node environment — three
// words per replica row — with the candidates straddling both word
// boundaries, under each policy, against the materialising reference, which
// checks the rows against its own catalog after every critical work. The
// finished build's sets must reach into the second and the third word, or
// the fixture no longer tests what it is for.
func TestBuildOnMultiWordReplicaRows(t *testing.T) {
	env, cals, job := layeredFixture(5, 2, 130, 400)
	cands := []resource.NodeID{62, 63, 64, 65, 127, 128, 129}
	for _, pol := range policies {
		opt := Options{Candidates: cands, Data: data.Model{Policy: pol, Storage: 128}}
		want, _, refCat, wantErr := refBuild(env, cals.Clone(), job, opt)
		got, arena, err := buildHeld(env, cals, job, opt)
		if err != nil || wantErr != nil {
			t.Fatalf("%v: Build err = %v, reference %v", pol, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: schedule differs from the reference:\n got %+v\nwant %+v", pol, got, want)
		}
		if err := sameReplicas(arena, refCat); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
		var words [3]bool
		for id := 0; id < job.NumTasks(); id++ {
			for _, n := range arena.replicas(dag.TaskID(id)) {
				words[n/64] = true
			}
		}
		if !words[1] || !words[2] {
			t.Errorf("%v: replicas by word %v: the build never left the first word of a row", pol, words)
		}
		arena.release()
	}
}

// loadedFig2 is the Fig. 2 job on the paper's environment with every book
// loaded with eight short external reservations, and the four candidates a
// strategy hands in: a build there records collisions under every policy.
func loadedFig2(t *testing.T) (*dag.Job, *resource.Environment, Calendars, []resource.NodeID) {
	env := paperEnv()
	cals := EmptyCalendars(env)
	for id, c := range cals {
		for k := 0; k < 8; k++ {
			start := simtime.Time(5*k + int(id))
			if err := c.Reserve(simtime.Interval{Start: start, End: start + 2}, resource.External); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fig2Job(40), env, cals, []resource.NodeID{0, 1, 2, 3}
}

// TestBuildAllocsFig2 pins what one Build of the Fig. 2 job allocates on
// loaded books, per data policy, with the table and the candidates handed in
// (what strategy.Generator does): the Schedule, its Placements (one slice)
// and, when the build recorded any, its Collisions at their exact length.
// Nothing else: the bounds, the chain searches, the DP table, the overlay,
// the replica sets and the collisions as they are found all live in the
// pooled arena, the candidates and the data model are the caller's, and the
// table is a view of the job. The ceilings are the measured counts.
func TestBuildAllocsFig2(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the pin runs in CI's step without -race")
	}
	job, env, cals, cands := loadedFig2(t)
	for _, pol := range policies {
		opt := Options{Candidates: cands, Data: data.Model{Policy: pol}}
		s, err := Build(env, cals, job, opt)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if len(s.Collisions) == 0 || cap(s.Collisions) != len(s.Collisions) {
			t.Fatalf("%v: the fixture needs collisions at exact length, got %d in room for %d", pol, len(s.Collisions), cap(s.Collisions))
		}
		const ceiling = 3 // Schedule, Placements, Collisions
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := Build(env, cals, job, opt); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %.0f allocs per Build, %d collisions", pol, allocs, len(s.Collisions))
		if allocs > ceiling {
			t.Errorf("%v: %.0f allocs per Build, ceiling %d", pol, allocs, ceiling)
		}
	}
}

// TestBuildBytes pins the bytes one Build of the Fig. 2 job allocates on
// loaded books, per data policy: what TestBuildAllocsFig2 counts, by size.
// The Schedule takes a 96-byte block, its six Placements 192 bytes and its
// five Collisions, 40 bytes each, a 208-byte block. The ceiling is the
// reading, the same under every policy. With a Collision's Holder a
// resource.Owner, two strings, a Collision took 64 bytes and the reading was
// 608. A breach means a Collision, a Placement or the Schedule has grown, or
// a build has started allocating something it drops.
func TestBuildBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the pin runs in CI's step without -race")
	}
	job, env, cals, cands := loadedFig2(t)
	for _, pol := range policies {
		opt := Options{Candidates: cands, Data: data.Model{Policy: pol}}
		s, err := Build(env, cals, job, opt)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		const ceiling = 496
		bytes := bytesPerRun(200, func() {
			if _, err := Build(env, cals, job, opt); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %d bytes per Build, %d collisions", pol, bytes, len(s.Collisions))
		if bytes > ceiling {
			t.Errorf("%v: %d bytes per Build, ceiling %d", pol, bytes, ceiling)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs calls after a warm-up call, on one P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
