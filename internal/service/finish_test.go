package service

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// TestFinishLockedTransitionTable drives every entry point into every
// terminal state on its own journaled server and checks the whole row of
// the transition table for the step that makes job "j" terminal: the
// journal gains exactly the records that step owes (so the terminal one is
// written once) and folds to the right state/reason/epoch, the terminal
// stream fires exactly once with the ledger's record, exactly one Metrics
// field and its grid_service_* counter move, and every build context the
// VO took is cancelled when its build returns.
func TestFinishLockedTransitionTable(t *testing.T) {
	const infeasible = "infeasible: deadline 3 is below the fastest-tier critical path 5"
	type world struct {
		s        *Server
		recovery *journal.Recovery
	}
	submit := func(t *testing.T, s *Server, id string, prio int) {
		t.Helper()
		if _, err := s.Submit(wireJob(id, 60), "S1", prio); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	restore := func(t *testing.T, w world) {
		t.Helper()
		if _, err := w.s.Restore(w.recovery); err != nil {
			t.Fatal(err)
		}
	}
	revoke := func(t *testing.T, s *Server, epoch int) {
		t.Helper()
		if _, err := s.RevokeEpoch("j", "moved", epoch); err != nil {
			t.Fatal(err)
		}
	}
	wire := wireJob("j", 60)

	cases := []struct {
		name   string
		state  string
		reason string
		epoch  int
		// appends is how many journal records the step writes: the terminal
		// one, plus the newcomer's accept where the step is a shedding Submit.
		appends uint64
		seed    []journal.Record // journal contents before the server starts
		cfg     Config
		setup   func(t *testing.T, w world) // brings j to the brink; may be nil
		step    func(t *testing.T, w world) // makes j terminal
	}{
		{
			name: "completed/vo-complete", state: StateCompleted, appends: 1,
			setup: func(t *testing.T, w world) { submit(t, w.s, "j", 0) },
			step: func(t *testing.T, w world) {
				w.s.Process(-1)
				w.s.Quiesce()
			},
		},
		{
			name: "rejected/vo-reject", state: StateRejected, reason: "no feasible allocation", appends: 1,
			setup: func(t *testing.T, w world) {
				for id := 0; id < w.s.cfg.Env.NumNodes(); id++ {
					w.s.vo.InjectExternal(resource.NodeID(id), simtime.Interval{Start: 0, End: 1000})
				}
				submit(t, w.s, "j", 0)
			},
			step: func(t *testing.T, w world) { w.s.Process(-1) },
		},
		{
			name: "rejected/vo-refused-submission", state: StateRejected,
			reason: `metasched: job "j" submitted after the VO was closed`, appends: 1,
			setup: func(t *testing.T, w world) {
				submit(t, w.s, "j", 0)
				w.s.vo.Close()
			},
			step: func(t *testing.T, w world) { w.s.Process(-1) },
		},
		{
			name: "rejected/shed", state: StateRejected,
			reason: "shed: displaced by higher-priority work under overload", appends: 2,
			cfg:   Config{QueueCap: 1},
			setup: func(t *testing.T, w world) { submit(t, w.s, "j", 0) },
			step:  func(t *testing.T, w world) { submit(t, w.s, "winner", 1) },
		},
		{
			name: "rejected/infeasible-admission", state: StateRejected, reason: infeasible, appends: 1,
			step: func(t *testing.T, w world) {
				if _, err := w.s.Submit(wireJob("j", 3), "S1", 0); submitCode(err) != CodeInfeasible {
					t.Fatalf("err = %v, want infeasible", err)
				}
			},
		},
		{
			name: "rejected/infeasible-resurrection", state: StateRejected, reason: infeasible, epoch: 2, appends: 1,
			setup: func(t *testing.T, w world) { revoke(t, w.s, 1) }, // a first life, ended as a tombstone
			step: func(t *testing.T, w world) {
				if _, err := w.s.SubmitEpoch(wireJob("j", 3), "S1", 0, 2); submitCode(err) != CodeInfeasible {
					t.Fatalf("err = %v, want infeasible", err)
				}
			},
		},
		{
			name: "rejected/unrecoverable-entry", state: StateRejected,
			reason: "recovery: journal entry has no wire payload", appends: 1,
			seed: []journal.Record{{Job: "j", State: StateQueued, Strategy: "S1"}},
			step: restore,
		},
		{
			name: "drained/queued-at-shutdown", state: StateDrained,
			reason: "drained to snapshot on shutdown", appends: 1,
			setup: func(t *testing.T, w world) { submit(t, w.s, "j", 0) },
			step: func(t *testing.T, w world) {
				if err := w.s.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "revoked/queued", state: StateRevoked, reason: "moved", epoch: 4, appends: 1,
			setup: func(t *testing.T, w world) { submit(t, w.s, "j", 0) },
			step:  func(t *testing.T, w world) { revoke(t, w.s, 4) },
		},
		{
			name: "revoked/held", state: StateRevoked, reason: "moved", epoch: 3, appends: 1,
			seed: []journal.Record{{Job: "j", State: StateQueued, Strategy: "S1", Wire: &wire, Epoch: 3}},
			cfg:  Config{HoldRecovered: true},
			setup: func(t *testing.T, w world) {
				restore(t, w)
				if _, err := w.s.RevokeEpoch("j", "moved", 2); err != ErrInFlight {
					t.Fatalf("stale revoke of a held job: err = %v, want ErrInFlight", err)
				}
			},
			step: func(t *testing.T, w world) { revoke(t, w.s, 3) },
		},
		{
			name: "revoked/tombstone", state: StateRevoked, reason: "revoked before arrival: moved", epoch: 5, appends: 1,
			step: func(t *testing.T, w world) { revoke(t, w.s, 5) },
		},
	}

	// The one tally field and registry counter each terminal state owns.
	owners := map[string]struct {
		field   func(tally) uint64
		counter string
	}{
		StateCompleted: {func(m tally) uint64 { return m.Completed }, "grid_service_completed_total"},
		StateRejected:  {func(m tally) uint64 { return m.Rejected }, "grid_service_rejected_total"},
		StateDrained:   {func(m tally) uint64 { return m.Drained }, "grid_service_drained_total"},
		StateRevoked:   {func(m tally) uint64 { return m.Revoked }, "grid_service_revoked_total"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if len(tc.seed) > 0 {
				jnl, _ := openJournal(t, dir)
				for _, rec := range tc.seed {
					if _, err := jnl.Append(rec); err != nil {
						t.Fatal(err)
					}
				}
				jnl.Close()
			}
			jnl, recovery := openJournal(t, dir)
			defer jnl.Close()
			var stream []Record
			cfg := tc.cfg
			cfg.Journal = jnl
			cfg.Telemetry = telemetry.NewRegistry()
			cfg.BuildTimeout = time.Minute // each build takes a context of its own
			cfg.OnTerminal = func(r Record) {
				if r.ID == "j" {
					stream = append(stream, r)
				}
			}
			w := world{s: newServer(t, cfg), recovery: recovery}
			root := &buildRoot{Context: w.s.rootCtx}
			w.s.rootCtx = root
			if tc.setup != nil {
				tc.setup(t, w)
			}
			counter := func(name string) uint64 { return cfg.Telemetry.Counter(name, "").Value() }
			before := readTally(w.s)
			beforeCounters := map[string]uint64{}
			for _, o := range owners {
				beforeCounters[o.counter] = counter(o.counter)
			}
			// Every append takes the next LSN.
			beforeLSN, beforeStream := jnl.Stats().NextLSN, len(stream)

			tc.step(t, w)

			if n := jnl.Stats().NextLSN - beforeLSN; n != uint64(tc.appends) {
				t.Errorf("step appended %d journal records, want %d", n, tc.appends)
			}
			got, err := journal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			var js journal.JobState
			for _, cand := range got.Jobs {
				if cand.Job == "j" {
					js = *cand
				}
			}
			if js.State != tc.state || js.Reason != tc.reason || js.Epoch != tc.epoch {
				t.Errorf("journal folds j to state=%q reason=%q epoch=%d, want %q %q %d",
					js.State, js.Reason, js.Epoch, tc.state, tc.reason, tc.epoch)
			}

			rec, _ := w.s.Job("j")
			if fired := stream[beforeStream:]; len(fired) != 1 || fired[0] != rec {
				t.Errorf("OnTerminal fired %+v, want exactly the ledger record %+v", fired, rec)
			}
			if rec.State != tc.state || rec.Reason != tc.reason || rec.Epoch != tc.epoch {
				t.Errorf("ledger %+v, want state=%q reason=%q epoch=%d", rec, tc.state, tc.reason, tc.epoch)
			}

			after := readTally(w.s)
			for state, o := range owners {
				want := uint64(0)
				if state == tc.state {
					want = 1
				}
				if d := o.field(after) - o.field(before); d != want {
					t.Errorf("tally field of %q moved by %d, want %d", state, d, want)
				}
				if d := counter(o.counter) - beforeCounters[o.counter]; d != want {
					t.Errorf("%s moved by %d, want %d", o.counter, d, want)
				}
			}

			if n := root.live.Load(); n != 0 {
				t.Errorf("%d of %d build contexts were never cancelled", n, root.taken.Load())
			}
		})
	}
}

// buildRoot stands in for a server's root context and counts the build
// contexts derived from it that are not yet cancelled. It hides the root's
// own cancel context (Value answers nothing), so context.WithTimeout
// registers each child through AfterFunc, and the child's cancel calls the
// stop AfterFunc returned.
type buildRoot struct {
	context.Context
	taken, live atomic.Int64
}

func (r *buildRoot) Value(any) any { return nil }

func (r *buildRoot) AfterFunc(f func()) func() bool {
	r.taken.Add(1)
	r.live.Add(1)
	stop := context.AfterFunc(r.Context, f)
	return func() bool {
		r.live.Add(-1)
		return stop()
	}
}
