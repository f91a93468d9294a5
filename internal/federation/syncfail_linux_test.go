package federation

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
)

// failFsyncs makes every later fsync of the active segment in dir fail, as
// a disk that lost a write would: each descriptor open on the segment is
// replaced by one of /dev/null, which takes writes and refuses fsync. The
// journal then keeps the failure for good.
func failFsyncs(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment in %s: %v", dir, err)
	}
	sort.Strings(segs)
	active, err := filepath.EvalSymlinks(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	replaced := 0
	for _, e := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err != nil || target != active {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Dup3(int(null.Fd()), fd, syscall.O_CLOEXEC); err != nil {
			t.Fatal(err)
		}
		replaced++
	}
	if replaced == 0 {
		t.Fatalf("no descriptor is open on %s", active)
	}
}

// TestHandoffRefusedAfterAFailedSync: a shard whose answer's sync fails
// does not answer "accepted". Its accept, and an idle shard's outcome, may
// then be on no disk, so the handoff is refused as internal, which the
// router retries and in the end reallocates; a resent frame, a duplicate,
// is refused the same way, since a failed fsync is sticky. The member's
// handler and LocalShard share the answer.
func TestHandoffRefusedAfterAFailedSync(t *testing.T) {
	refused := func(t *testing.T, how string, res *HandoffResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted || res.Code != service.CodeInternal {
			t.Errorf("%s: answer %+v after a failed fsync, want refused as %s", how, res, service.CodeInternal)
		}
	}
	for _, tc := range []struct {
		name  string
		start bool
	}{{"busy", false}, {"idle", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newCrashRig()
			svc, mark := rig.shard(t, t.TempDir(), tc.start)
			failFsyncs(t, mark.dir)
			h := &Handoff{Key: "j", Job: testJob("j", 60), Strategy: "S1"}
			res, err := rig.Handoff(context.Background(), h)
			refused(t, "the member's handler", res, err)
			res, err = rig.Handoff(context.Background(), h)
			refused(t, "the member's handler, resent", res, err)
			res, err = NewLocalShard("s0", svc).Handoff(context.Background(), h)
			refused(t, "LocalShard, resent", res, err)
		})
	}
}

// TestRevokeRefusedAfterAFailedSync: a shard whose revocation's sync fails
// does not confirm it. Its tombstone, or the revoked state of a queued job,
// may then be on no disk, so the revocation is answered with no outcome,
// for a queued job and for a key the shard never saw, by the member's
// answer and by LocalShard alike, each of which revokes the key again, as
// a resent revoke does. That holds with and without a terminal-state
// observer, whose owed notes make a call sync. The router refuses that
// answer: the job stays revoking, banned from no shard, and its revocation
// is sent again.
func TestRevokeRefusedAfterAFailedSync(t *testing.T) {
	const id = "queued"
	for _, tc := range []struct {
		name  string
		tweak func(*service.Config)
	}{
		{"observed", func(*service.Config) {}},
		{"unobserved", func(c *service.Config) { c.OnTerminal = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newCrashRig()
			svc, mark := rig.shard(t, t.TempDir(), false, tc.tweak)
			r, _ := rig.router(t, t.TempDir())
			if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
				t.Fatal(err)
			}
			sendOwed(r) // a manual-mode shard answers the handoff queued
			if rec, _ := svc.Job(id); rec.State != service.StateQueued {
				t.Fatalf("the shard holds %+v, want %s", rec, service.StateQueued)
			}
			failFsyncs(t, mark.dir)
			for _, key := range []string{id, "unseen"} {
				req := &RevokeRequest{Key: key, Reason: "test", Epoch: 1}
				for _, shard := range []ShardClient{rig, NewLocalShard("s0", svc)} {
					res, err := shard.Revoke(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					if res.Outcome != "" {
						t.Errorf("%T's answer to revoke %s: %+v after a failed fsync, want no outcome", shard, key, res)
					}
				}
			}

			r.beginRevoke(id, "test")
			sendOwed(r)
			r.mu.Lock()
			state, banned := r.records[id].State, len(r.records[id].banned)
			r.mu.Unlock()
			if state != StateRevoking || banned != 0 {
				t.Errorf("after an unconfirmed revocation the router holds %s with %d bans, want %s with none",
					state, banned, StateRevoking)
			}
		})
	}
}

// frameTally is a shard that counts the frames that reach it and settles
// none of them.
type frameTally struct{ frames atomic.Int64 }

func (f *frameTally) Name() string { return "s0" }

func (f *frameTally) Handoff(context.Context, *Handoff) (*HandoffResult, error) {
	f.frames.Add(1)
	return &HandoffResult{Code: service.CodeOverloaded}, nil
}

func (f *frameTally) Revoke(context.Context, *RevokeRequest) (*RevokeResult, error) {
	f.frames.Add(1)
	return &RevokeResult{}, nil
}

func (f *frameTally) Ping(context.Context) error { return nil }

// TestRouterSendsNothingAfterAFailedSync: a router whose journal fsync
// fails sends no frame that the failed sync owed. The binding Submit made
// beside its accept, and a revocation the router began, may be on no disk,
// and a router restored without them could bind the job to a second shard,
// so the handoff and the revoke stay home, each requeued as a send that
// settled nothing. Drain returns the sync error of what it marks drained.
func TestRouterSendsNothingAfterAFailedSync(t *testing.T) {
	newRouter := func(t *testing.T) (*Router, *frameTally, string) {
		t.Helper()
		dir := t.TempDir()
		jnl, _, err := journal.Open(journal.Options{Dir: dir, IsTerminal: service.Terminal})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = jnl.Close() })
		shard := &frameTally{}
		r, err := New(Config{Shards: []ShardClient{shard}, Journal: jnl, Seed: 1,
			HeartbeatInterval: time.Hour, RetryBase: time.Hour, RetryCap: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r, shard, dir
	}

	r, shard, dir := newRouter(t)
	if _, err := r.Submit(testJob("revoked", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	failFsyncs(t, dir)
	if _, err := r.Submit(testJob("handed", 60), "S1", 0); err == nil {
		t.Fatal("Submit acknowledged a job after a failed fsync")
	}
	r.beginRevoke("revoked", "test")
	sendOwed(r)
	if n := shard.frames.Load(); n != 0 {
		t.Fatalf("%d frames reached the shard after a failed fsync, want none", n)
	}
	for _, id := range []string{"handed", "revoked"} {
		r.mu.Lock()
		attempts := r.records[id].attempts
		r.mu.Unlock()
		if attempts != 1 {
			t.Errorf("%s: %d attempts used, want the 1 the send that stayed home used", id, attempts)
		}
	}

	r, _, dir = newRouter(t)
	r.mu.Lock()
	r.newRecordLocked("queued", "S1", 0, StateQueued)
	r.mu.Unlock()
	failFsyncs(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the job never dispatches: drain at once
	if err := r.Drain(ctx); err == nil || errors.Is(err, context.Canceled) {
		t.Errorf("Drain returned %v after a failed fsync, want the sync's error", err)
	}
}

// TestReadRefusedAfterAFailedSync: a read that shows an outcome answers
// only once its sync has made the outcome durable, so when that sync fails
// GET /v1/jobs/{id} and GET /v1/jobs answer 500, not the outcome, on either
// tier: the router, whose outcome mirrors a terminal notice and rides its
// next sync, and a shard, whose engine's own sync of the outcome failed.
// Both tiers answer through service.ClientMux.
func TestReadRefusedAfterAFailedSync(t *testing.T) {
	const id = "read"
	for _, tc := range []struct {
		name string
		// outcome leaves id completed in memory on a tier whose journal's
		// fsync fails from the outcome on, and returns the tier's handler.
		outcome func(t *testing.T) (service.Tier, http.Handler)
	}{
		{"router", func(t *testing.T) (service.Tier, http.Handler) {
			rig := newCrashRig()
			svc, _ := rig.shard(t, t.TempDir(), false)
			r, mark := rig.router(t, t.TempDir())
			if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
				t.Fatal(err)
			}
			sendOwed(r) // a manual-mode shard answers the handoff queued
			svc.Process(-1)
			svc.Quiesce()
			rig.deliver(r) // the outcome's record is appended, not synced
			failFsyncs(t, mark.dir)
			return r, r.Handler()
		}},
		{"shard", func(t *testing.T) (service.Tier, http.Handler) {
			svc, mark := newCrashRig().shard(t, t.TempDir(), false)
			if _, err := svc.Submit(testJob(id, 60), "S1", 0); err != nil {
				t.Fatal(err)
			}
			failFsyncs(t, mark.dir)
			svc.Process(-1) // the engine's sync of the outcome fails
			svc.Quiesce()
			return svc, svc.Handler()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tier, h := tc.outcome(t)
			if rec, _ := tier.Job(id); rec.State != service.StateCompleted {
				t.Fatalf("the tier holds %+v, want %s in memory", rec, service.StateCompleted)
			}
			for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs"} {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
				var body struct{ Code string }
				if err := json.Unmarshal(w.Body.Bytes(), &body); w.Code != http.StatusInternalServerError ||
					err != nil || body.Code != service.CodeInternal {
					t.Errorf("GET %s answered %d %s after a failed fsync, want 500 with code %s",
						path, w.Code, w.Body.Bytes(), service.CodeInternal)
				}
			}
		})
	}
}
