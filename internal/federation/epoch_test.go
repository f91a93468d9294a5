package federation

import (
	"context"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/service"
)

// TestEpochGatedResurrection pins the tombstone-epoch state machine on one
// shard: a revoked key refuses handoff replays at or below the tombstone's
// epoch, resurrects for a strictly higher one, and a stale revoke cannot
// yank the resurrected placement.
func TestEpochGatedResurrection(t *testing.T) {
	svc, err := service.New(service.Config{Env: testEnv(), Sched: metasched.Config{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	job := testJob("epoch-job", 60)
	handoff := func(epoch int) *HandoffResult {
		return ApplyHandoff(context.Background(), svc, &Handoff{Key: job.Name, Job: job, Strategy: "S1", Epoch: epoch})
	}
	revoke := func(epoch int) *RevokeResult {
		return ApplyRevoke(svc, &RevokeRequest{Key: job.Name, Reason: "test", Epoch: epoch})
	}

	// First placement at epoch 0, then a confirmed revocation at epoch 0.
	if res := handoff(0); !res.Accepted {
		t.Fatalf("first handoff = %+v", res)
	}
	if res := revoke(0); res.Outcome != RevokeOutcomeRevoked {
		t.Fatalf("revoke = %+v", res)
	}

	// A stale replay of the revoked binding (same epoch) is refused.
	if res := handoff(0); res.Accepted || !res.Duplicate || res.State != service.StateRevoked {
		t.Fatalf("stale replay = %+v", res)
	}

	// A deliberate re-handoff at a higher epoch resurrects the tombstone.
	if res := handoff(1); !res.Accepted || res.State != service.StateQueued {
		t.Fatalf("resurrecting handoff = %+v", res)
	}
	if rec, _ := svc.Job(job.Name); rec.Epoch != 1 {
		t.Fatalf("placement epoch = %d, want 1", rec.Epoch)
	}

	// A stale revoke (duplicated RPC from the epoch-0 round) must NOT yank
	// the epoch-1 placement.
	if res := revoke(0); res.Outcome != RevokeOutcomeInFlight {
		t.Fatalf("stale revoke = %+v", res)
	}
	if rec, _ := svc.Job(job.Name); rec.State != service.StateQueued {
		t.Fatalf("record after stale revoke = %+v", rec)
	}

	// A current-epoch revoke takes it back and raises the tombstone.
	if res := revoke(1); res.Outcome != RevokeOutcomeRevoked {
		t.Fatalf("current revoke = %+v", res)
	}
	if res := handoff(1); res.Accepted {
		t.Fatalf("replay at tombstone epoch accepted: %+v", res)
	}
	if res := handoff(2); !res.Accepted {
		t.Fatalf("epoch-2 resurrection = %+v", res)
	}
}

// TestRevokeRaisesTombstoneEpoch pins the re-revocation path: revoking an
// existing tombstone at a higher epoch raises the tombstone, so replays of
// the binding that was just revoked stay refused.
func TestRevokeRaisesTombstoneEpoch(t *testing.T) {
	svc, err := service.New(service.Config{Env: testEnv(), Sched: metasched.Config{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Revoke-before-arrival plants a tombstone at epoch 0; the job was
	// meanwhile rebound here at epoch 2 and revoked again — the second
	// revoke must raise the tombstone to 2.
	if res := ApplyRevoke(svc, &RevokeRequest{Key: "k", Epoch: 0}); res.Outcome != RevokeOutcomeRevoked {
		t.Fatalf("tombstone plant = %+v", res)
	}
	if res := ApplyRevoke(svc, &RevokeRequest{Key: "k", Epoch: 2}); res.Outcome != RevokeOutcomeRevoked {
		t.Fatalf("tombstone raise = %+v", res)
	}
	if rec, _ := svc.Job("k"); rec.Epoch != 2 {
		t.Fatalf("tombstone epoch = %d, want 2", rec.Epoch)
	}
	// The stale epoch-2 frame of the revoked binding is refused; epoch 3
	// resurrects.
	job := testJob("k", 60)
	if res := ApplyHandoff(context.Background(), svc, &Handoff{Key: "k", Job: job, Strategy: "S1", Epoch: 2}); res.Accepted {
		t.Fatalf("stale frame accepted over raised tombstone: %+v", res)
	}
	if res := ApplyHandoff(context.Background(), svc, &Handoff{Key: "k", Job: job, Strategy: "S1", Epoch: 3}); !res.Accepted {
		t.Fatalf("epoch-3 resurrection = %+v", res)
	}
}

// TestRevokeOfDrainedRaisesItsEpoch: a job drained at epoch 1 is revoked at
// epoch 2. The shard answers revoked, so the router reallocates it as it
// would on the drained notice, and the tombstone rises to epoch 2, still
// drained, in the ledger and the journal alike: the revoked binding's
// epoch-2 frame arriving later is refused, and epoch 3 starts a new life.
func TestRevokeOfDrainedRaisesItsEpoch(t *testing.T) {
	dir := t.TempDir()
	jnl, _ := openTestJournal(t, dir)
	wire := testJob("k", 60)
	for _, rec := range []journal.Record{
		{Job: "k", State: service.StateQueued, Strategy: "S1", Wire: &wire, Epoch: 1},
		{Job: "k", State: service.StateDrained, Reason: "drained to snapshot on shutdown"},
	} {
		if _, err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jnl.Close()
	jnl, recovery := openTestJournal(t, dir)
	defer jnl.Close()
	svc, err := service.New(service.Config{Env: testEnv(), Sched: metasched.Config{Seed: 4}, Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Restore(recovery); err != nil {
		t.Fatal(err)
	}
	res := ApplyRevoke(svc, &RevokeRequest{Key: "k", Reason: "moved", Epoch: 2})
	if res.Outcome != RevokeOutcomeRevoked || res.State != service.StateDrained {
		t.Fatalf("revoke of a drained record = %+v, want outcome revoked in state drained", res)
	}
	if rec, _ := svc.Job("k"); rec.State != service.StateDrained || rec.Epoch != 2 {
		t.Fatalf("drained record after the revoke = %+v, want drained at epoch 2", rec)
	}
	checkFoldMatchesLedger(t, dir, svc, "k")
	if res := ApplyHandoff(context.Background(), svc, &Handoff{Key: "k", Job: wire, Strategy: "S1", Epoch: 2}); res.Accepted {
		t.Fatalf("stale frame accepted over the raised tombstone: %+v", res)
	}
	if res := ApplyHandoff(context.Background(), svc, &Handoff{Key: "k", Job: wire, Strategy: "S1", Epoch: 3}); !res.Accepted {
		t.Fatalf("epoch-3 resurrection = %+v", res)
	}
}

// TestBanSaturationClearsAndResurrects drives the router end of the final
// recovery rung: when every shard holds a tombstone for a job, the router
// clears its bans and re-walks the ring, and the epoch mechanism lets the
// job resurrect and complete instead of wedging forever.
func TestBanSaturationClearsAndResurrects(t *testing.T) {
	var rt *Router
	shards := newFedShards(t, 2, &rt)
	for _, s := range shards {
		s.svc.Start()
	}
	f0 := &flakyShard{LocalShard: shards[0].local}
	f1 := &flakyShard{LocalShard: shards[1].local}
	f0.setBroken(true)
	f1.setBroken(true)
	r, err := New(Config{
		Shards:            []ShardClient{f0, f1},
		Seed:              13,
		RetryBudget:       2,
		RetryBase:         5 * time.Millisecond,
		HeartbeatInterval: time.Hour, // isolate from the death sweep
	})
	if err != nil {
		t.Fatal(err)
	}
	rt = r
	r.Start()
	defer r.Close()

	if _, err := r.Submit(testJob("saturate-me", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	// Both shards refuse handoffs, so both bindings exhaust their budgets
	// and both revokes plant tombstones: the banned set saturates.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := r.Metrics(); m.Reallocated >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bans never saturated: %+v", r.Metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Heal the fleet: the next dispatch clears the bans and resurrects the
	// job on some shard.
	f0.setBroken(false)
	f1.setBroken(false)
	waitQuiesced(t, r, 10*time.Second)

	view, _ := r.Job("saturate-me")
	if view.State != service.StateCompleted {
		t.Fatalf("job = %+v, want completed", view)
	}
	if view.Epoch < 2 {
		t.Fatalf("job completed at epoch %d, want >= 2 (two revocation rounds)", view.Epoch)
	}
	// Exactly-once: one shard completed it, the other holds only a
	// refused tombstone.
	executions := 0
	for i, s := range shards {
		rec, ok := s.svc.Job("saturate-me")
		if !ok {
			continue
		}
		switch rec.State {
		case service.StateCompleted:
			executions++
		case service.StateRevoked:
		default:
			t.Fatalf("shard %d ledger = %+v", i, rec)
		}
	}
	if executions != 1 {
		t.Fatalf("job executed %d times", executions)
	}
	// The late stale frame of the LAST revoked binding is still refused on
	// whichever shard holds a tombstone.
	for _, f := range []*flakyShard{f0, f1} {
		rec, ok := f.LocalShard.Service().Job("saturate-me")
		if !ok || rec.State != service.StateRevoked {
			continue
		}
		res, err := f.Handoff(context.Background(), &Handoff{
			Key: "saturate-me", Job: testJob("saturate-me", 60),
			Strategy: "S1", Epoch: rec.Epoch,
		})
		if err != nil || res.Accepted {
			t.Fatalf("stale frame at tombstone accepted: (%+v, %v)", res, err)
		}
	}
	for _, s := range shards {
		_ = s.svc.Drain(context.Background())
	}
}
