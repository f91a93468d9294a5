package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// The crash-point tests script a federated job one step at a time on the
// test goroutine and cut power between two steps. A SIGKILL keeps the page
// cache, so it loses nothing a write reached; a power loss keeps only what
// an fsync reached. syncMark stands in for the disk: it notes the active
// segment's size each time the journal's fsync counter moves, and crash
// copies the directory cut back to that size.

// syncMark follows one journal directory through a script. note, called
// between two steps, records the active segment and its size when the
// journal's fsync counter has moved since the last note: what the segment
// holds past that size would be lost with the power.
type syncMark struct {
	dir    string
	fsyncs *telemetry.Counter
	seen   uint64
	seg    string // the active segment when the counter last moved
	size   int64  // and its size then
}

// openMarked opens a journal in dir that syncs every acknowledgement, and
// the mark that follows it. What dir holds at the open counts as on disk.
func openMarked(t *testing.T, dir string) (*journal.Journal, *journal.Recovery, *syncMark) {
	t.Helper()
	reg := telemetry.NewRegistry()
	jnl, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncAlways,
		IsTerminal: service.Terminal, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = jnl.Close() })
	m := &syncMark{dir: dir, fsyncs: reg.Counter("grid_journal_fsyncs_total", "")}
	m.take(t)
	return jnl, rec, m
}

// take records the active segment's size now.
func (m *syncMark) take(t *testing.T) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(m.dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment in %s: %v", m.dir, err)
	}
	sort.Strings(segs) // named by first LSN in fixed-width hex
	info, err := os.Stat(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	m.seen, m.seg, m.size = m.fsyncs.Value(), filepath.Base(segs[len(segs)-1]), info.Size()
}

// note takes the mark if an fsync happened since the last one, and reports
// whether one did.
func (m *syncMark) note(t *testing.T) bool {
	t.Helper()
	if m.fsyncs.Value() == m.seen {
		return false
	}
	m.take(t)
	return true
}

// crash copies the directory into a fresh one as a power loss at the last
// noted fsync would leave it: the noted segment cut to its noted size, and
// no segment begun after it.
func (m *syncMark) crash(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && name > m.seg {
			continue
		}
		b, err := os.ReadFile(filepath.Join(m.dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == m.seg {
			b = b[:m.size]
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

var errPowerLoss = errors.New("crash rig: the shard lost power inside the handoff")

// crashRig is the one shard, s0, of a scripted crash test, as its router
// reaches it: each incarnation is a journaled service fronted by its
// member, whose handoff handler the rig calls in process with a real
// frame. The member's outbound loop never runs; deliver hands its queued
// notices to the router. ran tallies the outcomes the shard reaches across
// its incarnations, for the exactly-once audit.
type crashRig struct {
	mu   sync.Mutex
	m    *Member
	ran  map[string]int
	lose bool // the next handoff is admitted, and then the shard loses power
}

func newCrashRig() *crashRig { return &crashRig{ran: map[string]int{}} }

func (rig *crashRig) member() *Member {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	return rig.m
}

func (rig *crashRig) Name() string { return "s0" }

func (rig *crashRig) Handoff(ctx context.Context, h *Handoff) (*HandoffResult, error) {
	m := rig.member()
	rig.mu.Lock()
	lose := rig.lose
	rig.lose = false
	rig.mu.Unlock()
	if lose {
		// The handler's admission; the answer's sync never comes.
		_, _ = m.svc.SubmitEpoch(h.Job, h.Strategy, h.Priority, h.Epoch)
		return nil, errPowerLoss
	}
	frame, err := EncodeHandoff(h)
	if err != nil {
		return nil, err
	}
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, handoffPath, bytes.NewReader(frame)).WithContext(ctx)
	m.Handler(http.NotFoundHandler()).ServeHTTP(w, req)
	var res HandoffResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func (rig *crashRig) Revoke(_ context.Context, req *RevokeRequest) (*RevokeResult, error) {
	return ApplyRevoke(rig.member().svc, req), nil
}

func (rig *crashRig) Ping(context.Context) error { return nil }

// shard starts an incarnation of s0 over the journal in dir, restored from
// it and holding what it recovered until the router resends it, as every
// federated shard does. It runs its engine loop when start is set, and is
// left in manual mode otherwise. tweak, when given, edits its config.
func (rig *crashRig) shard(t *testing.T, dir string, start bool, tweak ...func(*service.Config)) (*service.Server, *syncMark) {
	t.Helper()
	jnl, rec, mark := openMarked(t, dir)
	// The member is never started or closed, so it never calls the router.
	m := NewMember(MemberConfig{Shard: "s0", Router: "http://127.0.0.1:0"})
	cfg := service.Config{Env: testEnv(), Sched: metasched.Config{Seed: 1}, Journal: jnl, HoldRecovered: true,
		OnTerminal: func(r service.Record) {
			if r.State == service.StateCompleted || r.State == service.StateRejected {
				rig.mu.Lock()
				rig.ran[r.ID]++
				rig.mu.Unlock()
			}
			m.Terminal(r)
		}}
	for _, tw := range tweak {
		tw(&cfg)
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Bind(svc)
	if _, err := svc.Restore(rec); err != nil {
		t.Fatal(err)
	}
	mark.note(t) // the restore's compaction synced a fresh segment
	if start {
		svc.Start()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = svc.Drain(ctx)
		})
	}
	rig.mu.Lock()
	rig.m = m
	rig.mu.Unlock()
	return svc, mark
}

// router starts a router over the rig, restored from the journal in dir.
// It runs no loops: sendOwed makes its sends, and no retry comes back
// within a test.
func (rig *crashRig) router(t *testing.T, dir string) (*Router, *syncMark) {
	t.Helper()
	jnl, rec, mark := openMarked(t, dir)
	r, err := New(Config{Shards: []ShardClient{rig}, Journal: jnl, Seed: 1,
		HeartbeatInterval: time.Hour, RetryBase: time.Hour, RetryCap: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if _, err := r.Restore(rec); err != nil {
		t.Fatal(err)
	}
	return r, mark
}

// sendOwed makes every send the router owes, in order, as its dispatchers
// would: a send whose entry moved since it was owed is dropped, and the
// move that owed it is synced first.
func sendOwed(r *Router) {
	for {
		r.mu.Lock()
		if len(r.pending) == 0 {
			r.mu.Unlock()
			return
		}
		o := r.pending[0]
		r.pending = r.pending[1:]
		rec := r.records[o.id]
		current := rec.State == o.state && rec.attempts == o.attempts
		r.mu.Unlock()
		if current {
			r.dispatch(o.id, o.lsn)
		}
	}
}

// deliver hands the router every terminal notice the member has queued.
func (rig *crashRig) deliver(r *Router) {
	m := rig.member()
	m.mu.Lock()
	notices := m.notices
	m.notices = nil
	m.mu.Unlock()
	for i := range notices {
		r.HandleTerminal(&notices[i])
	}
}

// audit checks exactly-once for id: the router holds it completed, and
// counted one outcome, and the shard reached one outcome across all its
// incarnations.
func (rig *crashRig) audit(t *testing.T, r *Router, id string) {
	t.Helper()
	if v, _ := r.Job(id); v.State != service.StateCompleted || v.Shard != "s0" {
		t.Errorf("the router holds %+v, want completed on s0", v)
	}
	if m := r.Metrics(); m.Completed+m.Rejected != 1 {
		t.Errorf("the router counted %d outcomes, want 1", m.Completed+m.Rejected)
	}
	rig.mu.Lock()
	defer rig.mu.Unlock()
	if n := rig.ran[id]; n != 1 {
		t.Errorf("the shard reached %d outcomes for %s across its incarnations, want 1", n, id)
	}
}

// TestCrashPointNoticedOutcome: a busy shard's outcome reaches the router
// as a notice, whose record rides the router's next sync; the router loses
// power first. The restored router holds the job handed to the shard and
// resends it, and the shard's duplicate answer carries the same outcome.
func TestCrashPointNoticedOutcome(t *testing.T) {
	const id = "noticed"
	rig := newCrashRig()
	svc, _ := rig.shard(t, t.TempDir(), false)
	r, mark := rig.router(t, t.TempDir())
	if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	if !mark.note(t) {
		t.Fatal("Submit answered before any fsync")
	}
	sendOwed(r) // a manual-mode shard answers the handoff queued
	svc.Process(-1)
	svc.Quiesce()
	rig.deliver(r)
	if !r.Quiesced() {
		t.Fatal("the notice did not move the entry")
	}
	if mark.note(t) {
		t.Fatal("the router synced after the handoff; the notice's outcome should ride the next sync")
	}

	r2, _ := rig.router(t, mark.crash(t))
	if v, _ := r2.Job(id); v.State != StateHanded || v.Shard != "s0" {
		t.Fatalf("restored %+v, want handed to s0: the outcome was never synced", v)
	}
	sendOwed(r2)
	rig.audit(t, r2, id)
}

// TestCrashPointAnsweredOutcome: an idle shard decides the job while the
// handoff waits, and the answer carries the outcome, whose router record
// rides the next sync; the router loses power first. The restored router
// resends the binding, and the duplicate answer carries the same outcome.
func TestCrashPointAnsweredOutcome(t *testing.T) {
	const id = "answered"
	rig := newCrashRig()
	rig.shard(t, t.TempDir(), true)
	r, mark := rig.router(t, t.TempDir())
	if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	if !mark.note(t) {
		t.Fatal("Submit answered before any fsync")
	}
	sendOwed(r)
	if !r.Quiesced() {
		t.Fatal("the idle shard's answer carried no outcome")
	}
	if mark.note(t) {
		t.Fatal("the router synced the answer's outcome; it should ride the next sync")
	}

	r2, _ := rig.router(t, mark.crash(t))
	if v, _ := r2.Job(id); v.State != StateHanded || v.Shard != "s0" {
		t.Fatalf("restored %+v, want handed to s0: the outcome was never synced", v)
	}
	sendOwed(r2)
	rig.audit(t, r2, id)
}

// TestCrashPointShardAccept: the shard admits a handoff, appending its
// accept unsynced, and loses power before the answer's sync. The router
// heard no answer and still holds the binding; the restarted shard has
// never heard of the job. Its join has the router resend the binding, and
// the job runs once, on the shard's second life.
func TestCrashPointShardAccept(t *testing.T) {
	const id = "unsynced-accept"
	rig := newCrashRig()
	_, smark := rig.shard(t, t.TempDir(), false)
	r, _ := rig.router(t, t.TempDir())
	if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	rig.lose = true
	sendOwed(r)
	if smark.note(t) {
		t.Fatal("the shard synced its admission; the accept should wait for the answer's sync")
	}

	svc2, _ := rig.shard(t, smark.crash(t), false)
	if rec, ok := svc2.Job(id); ok {
		t.Fatalf("the restarted shard holds %+v; the accept was never synced", rec)
	}
	if v, _ := r.Job(id); v.State != StateHanded {
		t.Fatalf("the router holds %+v, want handed: it heard no answer", v)
	}
	r.HandleJoin(&JoinRequest{Shard: "s0"})
	sendOwed(r)
	svc2.Process(-1)
	svc2.Quiesce()
	rig.deliver(r)
	rig.audit(t, r, id)
}

// TestCrashPointAfterSubmit: the router loses power just after Submit's
// fsync, before any handoff leaves. The accept and the binding shared that
// fsync, so the restored router holds the job handed to the shard Submit
// chose, and sends it there.
func TestCrashPointAfterSubmit(t *testing.T) {
	const id = "just-submitted"
	rig := newCrashRig()
	svc, _ := rig.shard(t, t.TempDir(), false)
	r, mark := rig.router(t, t.TempDir())
	view, err := r.Submit(testJob(id, 60), "S1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if view.State != StateHanded || view.Shard != "s0" {
		t.Fatalf("Submit left %+v, want handed to s0", view)
	}
	if !mark.note(t) {
		t.Fatal("Submit answered before any fsync")
	}

	r2, _ := rig.router(t, mark.crash(t))
	if v, _ := r2.Job(id); v.State != StateHanded || v.Shard != "s0" {
		t.Fatalf("restored %+v, want handed to s0: Submit's fsync covered the binding", v)
	}
	sendOwed(r2)
	svc.Process(-1)
	svc.Quiesce()
	rig.deliver(r2)
	rig.audit(t, r2, id)
}

// TestHandoffAnswersOnlyDurableState: a shard answers a handoff only once
// the job's accept is on disk. An idle shard decides the job while the
// handoff waits and answers after exactly one fsync, the outcome's, which
// covers the accept. A busy shard answers at once, with the job queued,
// and only after a sync of its accept: a power loss at the answer leaves
// the job in the shard's journal.
func TestHandoffAnswersOnlyDurableState(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		rig := newCrashRig()
		_, mark := rig.shard(t, t.TempDir(), true)
		before := mark.fsyncs.Value()
		res, err := rig.Handoff(context.Background(), &Handoff{Key: "idle", Job: testJob("idle", 60), Strategy: "S1"})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted || res.State != service.StateCompleted {
			t.Fatalf("answer %+v, want accepted and completed", res)
		}
		if n := mark.fsyncs.Value() - before; n != 1 {
			t.Errorf("the idle shard answered after %d fsyncs, want 1", n)
		}
	})
	t.Run("busy", func(t *testing.T) {
		rig := newCrashRig()
		tweak, blocked, release := blockOn("blocker")
		defer release()
		svc, mark := rig.shard(t, t.TempDir(), true, tweak)
		for _, id := range []string{"blocker", "ahead"} {
			if _, err := svc.Submit(testJob(id, 60), "S1", 0); err != nil {
				t.Fatal(err)
			}
			if id == "blocker" {
				<-blocked
			}
		}
		mark.note(t)
		res, err := rig.Handoff(context.Background(), &Handoff{Key: "busy", Job: testJob("busy", 60), Strategy: "S1"})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted || res.State != service.StateQueued {
			t.Fatalf("answer %+v, want accepted and queued", res)
		}
		mark.note(t)
		recovered, err := journal.Recover(mark.crash(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, js := range recovered.Jobs {
			if js.Job == "busy" {
				return
			}
		}
		t.Error("the busy shard answered before its accept was synced: a power loss at the answer forgets the job")
	})
}
