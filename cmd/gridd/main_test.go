package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/service"
)

// TestShardHoldsRecoveredJobsOnlyWhenItJoins restores a journal with one
// queued job through gridd's -shard wiring. A shard without -join has no
// router to resend the job, so the job must run to completion; a shard with
// -join must hold it until its router resends or revokes it.
func TestShardHoldsRecoveredJobsOnlyWhenItJoins(t *testing.T) {
	for _, tc := range []struct {
		name, join string
		held       int    // jobs the restore holds
		want       string // the job's state once the service has run
	}{
		{"standalone", "", 0, service.StateCompleted},
		{"join", "http://127.0.0.1:1", 1, service.StateQueued},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() (*journal.Journal, *journal.Recovery) {
				jnl, recovered, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever, IsTerminal: service.Terminal})
				if err != nil {
					t.Fatal(err)
				}
				return jnl, recovered
			}
			jnl, _ := open()
			wire := jobio.Job{Name: "job", Deadline: 10_000, Tasks: []jobio.Task{
				{Name: "A", BaseTime: 2, Volume: 10}, {Name: "B", BaseTime: 3, Volume: 15},
			}, Edges: []jobio.Edge{{Name: "d", From: "A", To: "B", BaseTime: 1, Volume: 5}}}
			if _, err := jnl.Append(journal.Record{Job: wire.Name, State: service.StateQueued, Strategy: "S1", Wire: &wire}); err != nil {
				t.Fatal(err)
			}
			if err := jnl.Close(); err != nil {
				t.Fatal(err)
			}

			jnl, recovered := open()
			defer jnl.Close()
			env, err := loadEnv("", 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := service.Config{Env: env, Journal: jnl}
			member := shardMember(&cfg, federation.MemberConfig{Shard: "s0", Router: tc.join})
			srv, err := service.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := srv.Restore(recovered)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Held != tc.held || stats.Held+stats.Requeued != 1 {
				t.Fatalf("restore held=%d requeued=%d, want held=%d", stats.Held, stats.Requeued, tc.held)
			}
			member.Bind(srv)
			srv.Start()
			defer srv.Drain(context.Background())

			// A held job must stay queued; give it time to run if it could.
			deadline := time.Now().Add(10 * time.Second)
			if tc.held > 0 {
				deadline = time.Now().Add(200 * time.Millisecond)
			}
			for time.Now().Before(deadline) {
				if rec, _ := srv.Job(wire.Name); service.Terminal(rec.State) {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if rec, _ := srv.Job(wire.Name); rec.State != tc.want {
				t.Fatalf("restored job is %s, want %s", rec.State, tc.want)
			}
		})
	}
}
