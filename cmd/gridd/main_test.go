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

// TestJoinFlagRefusesAShardWithoutARouter: -join takes the shard's name and
// its router's URL together, and refuses a value missing either, so no
// configuration yields a shard that has no router to report to.
func TestJoinFlagRefusesAShardWithoutARouter(t *testing.T) {
	for _, bad := range []string{"", "s0", "s0=", "=http://127.0.0.1:8070"} {
		if shard, router, err := parseJoin(bad); err == nil {
			t.Errorf("-join %q gave shard %q, router %q; want an error", bad, shard, router)
		}
	}
	if shard, router, err := parseJoin("s0=http://127.0.0.1:8070"); err != nil || shard != "s0" || router != "http://127.0.0.1:8070" {
		t.Fatalf("-join s0=http://127.0.0.1:8070 gave (%q, %q, %v)", shard, router, err)
	}
}

// TestShardHoldsRecoveredJobsOnlyWhenItJoins restores a journal with one
// queued job through gridd's -join wiring. The shard must hold the job until
// its router resends or revokes it.
func TestShardHoldsRecoveredJobsOnlyWhenItJoins(t *testing.T) {
	for _, tc := range []struct {
		name, join string
		held       int    // jobs the restore holds
		want       string // the job's state once the service has run
	}{
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
			deadline := time.Now().Add(200 * time.Millisecond)
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
