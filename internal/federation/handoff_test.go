package federation

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// tally is a shard's grid_service_* admission counters.
type tally struct {
	Submitted, Accepted, Completed, Rejected, Shed        uint64
	Infeasible, Overloaded, Drained, Revoked, Resurrected uint64
}

// shardTally reads a shard's tally from its registry.
func shardTally(reg *telemetry.Registry) tally {
	c := func(stem string) uint64 { return reg.Counter("grid_service_"+stem+"_total", "").Value() }
	return tally{
		Submitted: c("submitted"), Accepted: c("accepted"), Completed: c("completed"),
		Rejected: c("rejected"), Shed: c("shed"), Infeasible: c("infeasible"),
		Overloaded: c("overloaded"), Drained: c("drained"), Revoked: c("revoked"),
		Resurrected: c("resurrected"),
	}
}

// metricsDelta is how far each counter moved from m0 to m1.
func metricsDelta(m0, m1 tally) tally {
	return tally{
		Submitted: m1.Submitted - m0.Submitted, Accepted: m1.Accepted - m0.Accepted,
		Completed: m1.Completed - m0.Completed, Rejected: m1.Rejected - m0.Rejected,
		Shed: m1.Shed - m0.Shed, Infeasible: m1.Infeasible - m0.Infeasible,
		Overloaded: m1.Overloaded - m0.Overloaded, Drained: m1.Drained - m0.Drained,
		Revoked: m1.Revoked - m0.Revoked, Resurrected: m1.Resurrected - m0.Resurrected,
	}
}

// openTestJournal opens (or recovers) the journal in dir without fsyncs.
func openTestJournal(t testing.TB, dir string) (*journal.Journal, *journal.Recovery) {
	t.Helper()
	jnl, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever, IsTerminal: service.Terminal})
	if err != nil {
		t.Fatal(err)
	}
	return jnl, rec
}

// checkFoldMatchesLedger recovers dir and checks that the journal folds key
// to the ledger's record: the same state ("scheduled" lives in memory only,
// so it folds as the accept), reason and epoch, or no entry where the
// ledger has none.
func checkFoldMatchesLedger(t testing.TB, dir string, svc *service.Server, key string) {
	t.Helper()
	got, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	var fold *journal.JobState
	for _, js := range got.Jobs {
		if js.Job == key {
			fold = js
		}
	}
	rec, ok := svc.Job(key)
	if !ok || fold == nil {
		if ok || fold != nil {
			t.Fatalf("%s: ledgered=%v but journal fold=%+v", key, ok, fold)
		}
		return
	}
	state := rec.State
	if state == service.StateScheduled {
		state = service.StateQueued
	}
	if fold.State != state || fold.Reason != rec.Reason || fold.Epoch != rec.Epoch {
		t.Fatalf("%s: journal folds to state=%q reason=%q epoch=%d, ledger is %+v",
			key, fold.State, fold.Reason, fold.Epoch, rec)
	}
}

// TestDuplicateHandoffCarriesTheReason: a duplicate handoff is answered with
// the record as it stands, its Reason included. A router whose first answer
// was lost learns the outcome from the second; without the Reason it
// recorded an infeasible job's rejection with none, and the later terminal
// notice cannot repair a terminal record.
func TestDuplicateHandoffCarriesTheReason(t *testing.T) {
	svc, err := service.New(service.Config{Env: testEnv()})
	if err != nil {
		t.Fatal(err)
	}
	h := &Handoff{Key: "j", Job: testJob("j", 3), Strategy: "S1"}
	first := ApplyHandoff(context.Background(), svc, h)
	if first.Code != service.CodeInfeasible || first.Reason == "" {
		t.Fatalf("first answer %+v, want an infeasible refusal with its reason", *first)
	}
	rec, _ := svc.Job("j")
	second := ApplyHandoff(context.Background(), svc, h)
	want := HandoffResult{Accepted: true, Duplicate: true, State: service.StateRejected,
		Code: service.CodeDuplicate, Reason: rec.Reason}
	if *second != want || rec.Reason != first.Reason {
		t.Fatalf("second answer %+v, want %+v", *second, want)
	}
}

// TestHandoffAnswers pins a shard's whole answer to one handoff of key "j":
// for every prior ledger state of the key, a handoff epoch below, equal to
// or above the epoch that state was placed or tombstoned at, and every
// admission condition, the HandoffResult, the ledger record, the journal
// fold and the counters the step moves. One rule decides every row: a key
// that is not ledgered, or whose entry is a tombstone the handoff's epoch
// outranks, is admitted as a first submission would be (infeasible, then
// draining, then the queue cap); any other ledgered key is a duplicate,
// answered with the existing record.
func TestHandoffAnswers(t *testing.T) {
	const (
		e          = 1 // the epoch every prior life was placed or tombstoned at
		infeasible = "infeasible: deadline 3 is below the fastest-tier critical path 5"
		queueCap   = 2
	)
	wire := testJob("j", 60)
	accept := journal.Record{Job: "j", State: service.StateQueued, Strategy: "S1", Wire: &wire, Epoch: e}
	priors := []struct {
		name    string
		journal []journal.Record // what the shard restores at startup
		hold    bool
		setup   func(t *testing.T, svc *service.Server)
	}{
		{name: "none"},
		{name: "queued", journal: []journal.Record{accept}},
		{name: "held", journal: []journal.Record{accept}, hold: true},
		{name: "running", journal: []journal.Record{accept},
			setup: func(t *testing.T, svc *service.Server) { svc.Process(-1) }},
		{name: "terminal", journal: []journal.Record{accept},
			setup: func(t *testing.T, svc *service.Server) { svc.Process(-1); svc.Quiesce() }},
		{name: "drained", journal: []journal.Record{accept,
			{Job: "j", State: service.StateDrained, Reason: "drained to snapshot on shutdown"}}},
		{name: "tombstone",
			setup: func(t *testing.T, svc *service.Server) {
				if _, err := svc.RevokeEpoch("j", "moved", e); err != nil {
					t.Fatal(err)
				}
			}},
	}
	epochs := []struct {
		name  string
		epoch int
	}{{"below", e - 1}, {"equal", e}, {"above", e + 1}}
	conds := []struct {
		name                string
		draining, full, bad bool // bad: the handoff's deadline is infeasible
	}{
		{name: "open"},
		{name: "draining", draining: true},
		{name: "full", full: true},
		{name: "infeasible", bad: true},
		{name: "infeasible-draining", bad: true, draining: true},
	}

	for _, p := range priors {
		for _, ep := range epochs {
			for _, c := range conds {
				t.Run(p.name+"/"+ep.name+"/"+c.name, func(t *testing.T) {
					dir := t.TempDir()
					if len(p.journal) > 0 {
						jnl, _ := openTestJournal(t, dir)
						for _, rec := range p.journal {
							if _, err := jnl.Append(rec); err != nil {
								t.Fatal(err)
							}
						}
						jnl.Close()
					}
					jnl, recovery := openTestJournal(t, dir)
					defer jnl.Close()
					reg := telemetry.NewRegistry()
					svc, err := service.New(service.Config{Env: testEnv(), Sched: metasched.Config{Seed: 1},
						Journal: jnl, HoldRecovered: p.hold, QueueCap: queueCap, Telemetry: reg})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := svc.Restore(recovery); err != nil {
						t.Fatal(err)
					}
					if p.setup != nil {
						p.setup(t, svc)
					}
					if c.draining {
						if err := svc.Drain(context.Background()); err != nil {
							t.Fatal(err)
						}
					}
					for i := 0; c.full && reg.Gauge("grid_service_queue_depth", "").Value() < queueCap; i++ {
						if _, err := svc.Submit(testJob(fmt.Sprintf("filler-%d", i), 60), "S1", 0); err != nil {
							t.Fatal(err)
						}
					}

					before, known := svc.Job("j")
					m0 := shardTally(reg)
					deadline := int64(60)
					if c.bad {
						deadline = 3
					}
					res := ApplyHandoff(context.Background(), svc, &Handoff{Key: "j", Job: testJob("j", deadline),
						Strategy: "S1", Priority: 1, Epoch: ep.epoch})
					after, ok := svc.Job("j")

					reopens := !known || (service.Tombstone(before.State) && ep.epoch > before.Epoch)
					var want HandoffResult
					wantRec, wantKnown := before, known
					var delta tally
					if !c.bad {
						delta.Submitted = 1
					}
					switch {
					case !c.bad && c.draining:
						want.Code, want.Reason = service.CodeDraining, "service is draining; not accepting work"
					case !reopens:
						want.Duplicate, want.Accepted, want.State = true, !service.Tombstone(before.State), before.State
						want.Code, want.Reason = service.CodeDuplicate, before.Reason
					default:
						// A new life: the record starts over in place, keeping
						// its Seq, or is created.
						wantKnown = true
						wantRec = service.Record{ID: "j", Strategy: "S1", Priority: 1, Epoch: ep.epoch, Seq: before.Seq}
						if !known {
							wantRec.Seq = after.Seq
						} else {
							delta.Resurrected = 1
						}
						if c.bad {
							want.Code, want.Reason = service.CodeInfeasible, infeasible
							wantRec.State, wantRec.Reason = service.StateRejected, infeasible
							delta.Submitted, delta.Infeasible, delta.Rejected = 1, 1, 1
						} else {
							want.Accepted, want.State = true, service.StateQueued
							wantRec.State = service.StateQueued
							delta.Accepted = 1
							if c.full {
								delta.Shed, delta.Rejected = 1, 1 // a priority-0 filler yields
							}
						}
					}

					if *res != want {
						t.Errorf("answer %+v, want %+v", *res, want)
					}
					if ok != wantKnown || after != wantRec {
						t.Errorf("ledger (%v) %+v, want (%v) %+v", ok, after, wantKnown, wantRec)
					}
					if got := metricsDelta(m0, shardTally(reg)); got != delta {
						t.Errorf("counters moved %+v, want %+v", got, delta)
					}
					checkFoldMatchesLedger(t, dir, svc, "j")
				})
			}
		}
	}
}

// FuzzShardEpochProtocol runs sequences of handoffs and revokes of two keys
// at epochs 0..3, dequeues and completions on one journaled shard against a
// model of the epoch protocol, and checks after every op that:
//
//   - the shard answers as the model does: a key is admitted when it is
//     unknown or a tombstone the handoff's epoch outranks, so a frame at or
//     below the tombstone's epoch is never accepted;
//   - each key has at most one live life, and its record's epoch never
//     falls;
//   - the journal folds each key to its ledger record;
//   - OnTerminal fires once per life: never twice, and for every life that
//     has ended.
//
// An op byte reads: bit 0 the key, bits 1-2 the op (handoff, revoke,
// dequeue everything, run to quiescence), bits 3-4 the epoch.
func FuzzShardEpochProtocol(f *testing.F) {
	const (
		handoffA0, revokeA0, dequeue, quiesce = 0, 2, 4, 6
		atEpoch1, atEpoch2, atEpoch3, keyB    = 1 << 3, 2 << 3, 3 << 3, 1
	)
	f.Add([]byte{handoffA0, revokeA0, handoffA0, handoffA0 | atEpoch1, revokeA0, dequeue,
		revokeA0 | atEpoch1, quiesce, handoffA0 | atEpoch3})
	f.Add([]byte{revokeA0 | keyB | atEpoch2, handoffA0 | keyB | atEpoch2, handoffA0 | keyB | atEpoch3,
		revokeA0 | keyB | atEpoch3, handoffA0 | keyB | atEpoch3, dequeue, quiesce})
	f.Add([]byte{handoffA0 | atEpoch2, revokeA0 | atEpoch1, handoffA0 | keyB, dequeue,
		revokeA0 | keyB, revokeA0 | atEpoch2, handoffA0 | atEpoch3, quiesce, dequeue, quiesce})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 40 {
			ops = ops[:40]
		}
		dir := t.TempDir()
		jnl, _ := openTestJournal(t, dir)
		defer jnl.Close()
		fired := map[string]int{}
		svc, err := service.New(service.Config{Env: testEnv(), Sched: metasched.Config{Seed: 1}, Journal: jnl,
			OnTerminal: func(r service.Record) { fired[r.ID]++ }})
		if err != nil {
			t.Fatal(err)
		}
		type life struct {
			state       string // "" until the key is ledgered
			epoch, born int    // born counts lives started, tombstone plants included
		}
		model := map[string]*life{"a": {}, "b": {}}
		seen := map[string]int{} // the highest epoch each key's record has shown

		for i, op := range ops {
			key, epoch := string(rune('a'+op&1)), int(op>>3)&3
			m := model[key]
			switch op >> 1 & 3 {
			case 0:
				res := ApplyHandoff(context.Background(), svc, &Handoff{Key: key, Job: testJob(key, 60), Strategy: "S1", Epoch: epoch})
				if m.state == service.StateRevoked && epoch <= m.epoch && res.Accepted {
					t.Fatalf("op %d: handoff %s@%d accepted over a tombstone at %d", i, key, epoch, m.epoch)
				}
				if m.state == "" || (m.state == service.StateRevoked && epoch > m.epoch) {
					if !res.Accepted || res.State != service.StateQueued {
						t.Fatalf("op %d: handoff %s@%d = %+v, want a new life", i, key, epoch, res)
					}
					m.state, m.epoch = service.StateQueued, epoch
					m.born++
				} else if !res.Duplicate || res.State != m.state || res.Accepted != (m.state != service.StateRevoked) {
					t.Fatalf("op %d: handoff %s@%d = %+v, want a duplicate of %s", i, key, epoch, res, m.state)
				}
			case 1:
				res := ApplyRevoke(svc, &RevokeRequest{Key: key, Epoch: epoch})
				want := RevokeOutcomeRevoked
				switch {
				case m.state == "":
					m.state, m.epoch = service.StateRevoked, epoch
					m.born++
				case m.state == service.StateScheduled || (m.state == service.StateQueued && m.epoch > epoch):
					want = RevokeOutcomeInFlight
				case m.state == service.StateCompleted:
					want = RevokeOutcomeTerminal
				default: // queued at or below epoch, or a tombstone: raised to epoch
					m.state, m.epoch = service.StateRevoked, max(m.epoch, epoch)
				}
				if res.Outcome != want {
					t.Fatalf("op %d: revoke %s@%d = %+v, want %s", i, key, epoch, res, want)
				}
			case 2:
				svc.Process(-1)
				for _, m := range model {
					if m.state == service.StateQueued {
						m.state = service.StateScheduled
					}
				}
			case 3:
				svc.Quiesce()
				for _, m := range model {
					if m.state == service.StateScheduled {
						m.state = service.StateCompleted
					}
				}
			}

			for _, k := range []string{"a", "b"} {
				m := model[k]
				rec, ok := svc.Job(k)
				if ok != (m.state != "") || rec.State != m.state || rec.Epoch != m.epoch {
					t.Fatalf("op %d: %s ledger (%v) %+v, model %+v", i, k, ok, rec, *m)
				}
				if rec.Epoch < seen[k] {
					t.Fatalf("op %d: %s epoch fell from %d to %d", i, k, seen[k], rec.Epoch)
				}
				seen[k] = rec.Epoch
				live := 0
				if ok && !service.Terminal(rec.State) {
					live = 1
				}
				if m.born-fired[k] != live {
					t.Fatalf("op %d: %s has lived %d lives, OnTerminal fired %d times, record %+v", i, k, m.born, fired[k], rec)
				}
				checkFoldMatchesLedger(t, dir, svc, k)
			}
		}
	})
}
