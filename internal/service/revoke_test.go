package service

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/journal"
	"repro/internal/metasched"
)

// TestRevokeQueued takes a still-queued job back and checks the terminal
// revoked ledger entry plus the duplicate guard.
func TestRevokeQueued(t *testing.T) {
	s := newServer(t, Config{})
	if _, err := s.Submit(wireJob("j1", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	rec, err := s.RevokeEpoch("j1", "rebalance", 0)
	if err != nil {
		t.Fatalf("revoke queued: %v", err)
	}
	if rec.State != StateRevoked {
		t.Fatalf("state = %q, want revoked", rec.State)
	}
	if !Terminal(StateRevoked) {
		t.Fatal("revoked must be terminal")
	}
	// Idempotent: a second revoke returns the same terminal record.
	rec2, err := s.RevokeEpoch("j1", "again", 0)
	if err != nil || rec2.State != StateRevoked {
		t.Fatalf("second revoke = (%v, %v), want revoked", rec2.State, err)
	}
	// The ID stays burned: resubmission is refused.
	if _, err := s.Submit(wireJob("j1", 60), "S1", 0); err == nil {
		t.Fatal("resubmit of revoked job accepted")
	}
	// Nothing left to schedule.
	if n := s.Process(-1); n != 0 {
		t.Fatalf("processed %d jobs after revoke, want 0", n)
	}
	if m := readTally(s); m.Revoked != 1 {
		t.Fatalf("Revoked = %d, want 1", m.Revoked)
	}
}

// TestRevokeUnknownPlantsTombstone pins the reorder-race defense: revoking
// an ID the shard never saw leaves a terminal tombstone, so a delayed
// handoff arriving later is refused as a duplicate and never executes.
func TestRevokeUnknownPlantsTombstone(t *testing.T) {
	s := newServer(t, Config{})
	rec, err := s.RevokeEpoch("ghost", "handoff gave up", 0)
	if err != nil {
		t.Fatalf("tombstone revoke: %v", err)
	}
	if rec.State != StateRevoked {
		t.Fatalf("tombstone state = %q, want revoked", rec.State)
	}
	_, err = s.Submit(wireJob("ghost", 60), "S1", 0)
	var se *SubmitError
	if !errors.As(err, &se) || se.Code != CodeDuplicate {
		t.Fatalf("late handoff after tombstone: err = %v, want duplicate", err)
	}
	got, _ := s.Job("ghost")
	if got.State != StateRevoked {
		t.Fatalf("ledger state after late handoff = %q, want revoked", got.State)
	}
}

// TestRevokeInFlight refuses to revoke a job the engine already owns.
func TestRevokeInFlight(t *testing.T) {
	s := newServer(t, Config{})
	if _, err := s.Submit(wireJob("j1", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	s.Process(1) // dequeue + schedule: now in flight
	if _, err := s.RevokeEpoch("j1", "too late", 0); !errors.Is(err, ErrInFlight) {
		t.Fatalf("revoke in-flight: err = %v, want ErrInFlight", err)
	}
	s.Quiesce()
	rec, _ := s.Job("j1")
	if rec.State != StateCompleted {
		t.Fatalf("in-flight job ended %q, want completed", rec.State)
	}
	// Terminal now: revoke reports the existing terminal state unchanged.
	rec2, err := s.RevokeEpoch("j1", "late again", 0)
	if err != nil || rec2.State != StateCompleted {
		t.Fatalf("revoke after terminal = (%q, %v), want completed", rec2.State, err)
	}
}

// TestHoldRecovered restores a crashed journal with HoldRecovered and
// checks that parked jobs do not run until resumed, and that revoked ones
// never run.
func TestHoldRecovered(t *testing.T) {
	dir := t.TempDir()
	open := func() (*journal.Journal, *journal.Recovery) {
		j, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever, IsTerminal: Terminal})
		if err != nil {
			t.Fatal(err)
		}
		return j, rec
	}
	j1, _ := open()
	s1 := newServer(t, Config{Journal: j1})
	for _, id := range []string{"a", "b", "c"} {
		if _, err := s1.Submit(wireJob(id, 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	j1.Close() // simulate a crash: jobs journaled queued, never scheduled

	j2, rec := open()
	defer j2.Close()
	s2 := newServer(t, Config{Journal: j2, HoldRecovered: true})
	stats, err := s2.Restore(rec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Held != 3 || stats.Requeued != 0 {
		t.Fatalf("restore held=%d requeued=%d, want 3/0", stats.Held, stats.Requeued)
	}
	s2.mu.Lock()
	var held []string
	for id := range s2.held {
		held = append(held, id)
	}
	slices.Sort(held)
	s2.mu.Unlock()
	if !slices.Equal(held, []string{"a", "b", "c"}) {
		t.Fatalf("held = %v, want a, b and c", held)
	}
	// Nothing runs while parked.
	if n := s2.Process(-1); n != 0 {
		t.Fatalf("parked jobs processed: %d", n)
	}
	// The router says: b was reallocated away, a and c are still ours.
	if rec, err := s2.RevokeEpoch("b", "reallocated to shard-2", 0); err != nil || rec.State != StateRevoked {
		t.Fatalf("revoke held = (%q, %v)", rec.State, err)
	}
	moved := 0
	for _, id := range []string{"a", "c", "b", "nope"} {
		if s2.ResumeHeld(id) {
			moved++
		}
	}
	if moved != 2 {
		t.Fatalf("ResumeHeld moved %d, want 2", moved)
	}
	if n := s2.Process(-1); n != 2 {
		t.Fatalf("processed %d resumed jobs, want 2", n)
	}
	s2.Quiesce()
	for id, want := range map[string]string{"a": StateCompleted, "b": StateRevoked, "c": StateCompleted} {
		if got, _ := s2.Job(id); got.State != want {
			t.Fatalf("job %s = %q, want %q", id, got.State, want)
		}
	}
}

// TestHeldDrainedOnShutdown checks held jobs are snapshotted and marked
// drained like queued ones.
func TestHeldDrainedOnShutdown(t *testing.T) {
	dir := t.TempDir()
	j1, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever, IsTerminal: Terminal})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newServer(t, Config{Journal: j1})
	if _, err := s1.Submit(wireJob("a", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	j1.Close()
	j2, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever, IsTerminal: Terminal})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	snap := filepath.Join(t.TempDir(), "snap.json")
	s2 := newServer(t, Config{Journal: j2, HoldRecovered: true, SnapshotPath: snap,
		Sched: metasched.Config{Seed: 1}})
	if _, err := s2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, _ := s2.Job("a")
	if got.State != StateDrained {
		t.Fatalf("held job after drain = %q, want drained", got.State)
	}
}
