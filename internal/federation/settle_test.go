package federation

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/metasched"
	"repro/internal/service"
	"repro/internal/telemetry"
)

const (
	handoffPath  = "/v1/federation/handoff"
	terminalPath = "/v1/federation/terminal"
)

// waitRouterTerminal waits until the router holds id in a terminal state
// and returns its entry.
func waitRouterTerminal(t *testing.T, r *Router, id string, within time.Duration) service.Record {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if v, ok := r.Job(id); ok && service.Terminal(v.State) {
			return v
		}
		if time.Now().After(deadline) {
			v, _ := r.Job(id)
			t.Fatalf("%s never went terminal at the router: %+v", id, v)
		}
		time.Sleep(time.Millisecond)
	}
}

// noNotices reports whether no member has sent or queued a terminal
// notice.
func noNotices(f *httpFederation) bool {
	if sent, _ := f.requests.counts(terminalPath); sent != 0 {
		return false
	}
	for _, m := range f.members {
		m.mu.Lock()
		queued := len(m.notices)
		m.mu.Unlock()
		if queued != 0 {
			return false
		}
	}
	return true
}

// waitJoined waits until every member's first join has been answered, as
// its grid_fed_member_joins_total reads. A join that lands after a binding
// makes the router send that binding again, so tests that count handoffs
// start after it.
func waitJoined(t testing.TB, f *httpFederation) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, m := range f.members {
		joins := m.cfg.Telemetry.Counter("grid_fed_member_joins_total", "", telemetry.L("shard", m.cfg.Shard))
		for joins.Value() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s never joined", m.cfg.Shard)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// blockOn makes a shard's engine stop inside the pass that takes job: the
// tweak installs a tracer that, at job's first event, closes the returned
// blocked channel and waits for release. release is idempotent; defer it,
// so a failing test never leaves the engine parked for the shard's drain.
func blockOn(job string) (tweak func(cfg *service.Config), blocked <-chan struct{}, release func()) {
	b, r := make(chan struct{}), make(chan struct{})
	var first, once sync.Once
	release = func() { once.Do(func() { close(r) }) }
	tweak = func(cfg *service.Config) {
		cfg.Sched.Tracer = metasched.TracerFunc(func(e metasched.Event) {
			if e.Job == job {
				first.Do(func() { close(b); <-r })
			}
		})
	}
	return tweak, b, release
}

// TestIdleShardAnswersWithTheOutcome is the outcome-in-the-answer gate:
// jobs paced so that each meets an idle shard cost one handoff apiece and
// no terminal notice at all, and each goes terminal at the router exactly
// once.
func TestIdleShardAnswersWithTheOutcome(t *testing.T) {
	f := startHTTPFederation(t, 2, nil)
	waitJoined(t, f)
	const n = 12
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("paced-%d", i)
		if _, err := f.router.Submit(testJob(id, 60), "S1", i%3); err != nil {
			t.Fatal(err)
		}
		if v := waitRouterTerminal(t, f.router, id, 5*time.Second); v.State != service.StateCompleted {
			t.Fatalf("%s ended %+v; want completed", id, v)
		}
	}
	if sent, _ := f.requests.counts(handoffPath); sent != n {
		t.Errorf("%d handoffs for %d paced jobs; want one each", sent, n)
	}
	if !noNotices(f) {
		t.Error("a terminal notice was queued; an idle shard's answer carries the outcome")
	}
	if m := f.router.Metrics(); m.Completed+m.Rejected != n {
		t.Errorf("router counted %d outcomes for %d jobs", m.Completed+m.Rejected, n)
	}
}

// settling counts the goroutines inside service.Server.Settle. Settle
// decides whether to wait under the server's lock, which nothing holds
// while the engine is blocked in a pass, so an admission sent after a
// handler shows here comes after that handler's decision.
func settling() int {
	buf := make([]byte, 64<<10)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "service.(*Server).Settle(")
		}
		buf = make([]byte, 2*len(buf)) // the dump was cut short
	}
}

// waitSettling waits until n goroutines are inside Settle.
func waitSettling(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for settling() < n {
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d handoffs reached Settle", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBusyShardAnswersAtOnceAndNotices: a handoff that finds work queued
// ahead of its job is answered without waiting for the engine, and the
// job's outcome follows as a terminal notice.
func TestBusyShardAnswersAtOnceAndNotices(t *testing.T) {
	settled := settling()
	tweak, blocked, release := blockOn("blocker")
	f := startHTTPFederation(t, 1, func(_ int, cfg *service.Config) bool { tweak(cfg); return false })
	defer release()
	waitJoined(t, f)
	if _, err := f.router.Submit(testJob("blocker", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	<-blocked
	// The blocker's handoff waits for its pass and "ahead" for the next;
	// "behind" has work queued ahead of it. Blocked and queued are not yet
	// waiting: a job admitted before a handler reaches Settle would leave
	// that handler nothing to wait for, so each next job waits for it.
	waitSettling(t, settled+1)
	for _, id := range []string{"ahead", "behind"} {
		if _, err := f.router.Submit(testJob(id, 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if rec, ok := f.svcs[0].Job(id); ok && rec.State == service.StateQueued {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached the shard's queue", id)
			}
			time.Sleep(time.Millisecond)
		}
		if id == "ahead" {
			waitSettling(t, settled+2)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, answered := f.requests.counts(handoffPath); answered == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the handoff with work queued ahead was not answered while the engine was busy")
		}
		time.Sleep(time.Millisecond)
	}
	if v, _ := f.router.Job("behind"); v.State != StateHanded {
		t.Fatalf("behind is %+v while the engine is stopped; want handed", v)
	}
	release()
	for _, id := range []string{"blocker", "ahead", "behind"} {
		if v := waitRouterTerminal(t, f.router, id, 5*time.Second); v.State != service.StateCompleted {
			t.Errorf("%s ended %+v; want completed", id, v)
		}
	}
	if sent, _ := f.requests.counts(terminalPath); sent == 0 {
		t.Error("no terminal notice: behind's outcome had no way to the router")
	}
	if sent, _ := f.requests.counts(handoffPath); sent != 3 {
		t.Errorf("%d handoffs for 3 jobs", sent)
	}
	if m := f.router.Metrics(); m.Completed != 3 {
		t.Errorf("router counted %d completions for 3 jobs", m.Completed)
	}
}

// TestLostOutcomeAnswerIsResent: the first handoff is processed, its job
// decided while it waits, and its answer lost on the way back. The
// router's retry is a duplicate, whose answer carries the outcome; the job
// ends with exactly one outcome at the router and no notice.
func TestLostOutcomeAnswerIsResent(t *testing.T) {
	f := startHTTPFederation(t, 1, nil)
	waitJoined(t, f)
	lossy := chaostest.NewFaultTransport(chaostest.FaultPlan{AckLoss: 1}, nil)
	f.requests.mu.Lock()
	f.requests.route = func(r *http.Request, n int) http.RoundTripper {
		if r.URL.Path == handoffPath && n == 1 {
			return lossy
		}
		return nil
	}
	f.requests.mu.Unlock()

	if _, err := f.router.Submit(testJob("lost-answer", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	if v := waitRouterTerminal(t, f.router, "lost-answer", 5*time.Second); v.State != service.StateCompleted {
		t.Fatalf("ended %+v; want completed", v)
	}
	if _, ackLosses, _, _ := lossy.Counts(); ackLosses != 1 {
		t.Fatalf("%d answers lost; want the first", ackLosses)
	}
	if sent, _ := f.requests.counts(handoffPath); sent != 2 {
		t.Errorf("%d handoffs; want the lost one and its retry", sent)
	}
	if !noNotices(f) {
		t.Error("a terminal notice was queued; the retry's answer carries the outcome")
	}
	if m := f.router.Metrics(); m.Completed != 1 || m.Rejected != 0 {
		t.Errorf("router outcomes %+v; want one completion", m)
	}
	if rec, _ := f.svcs[0].Job("lost-answer"); rec.State != service.StateCompleted {
		t.Errorf("shard holds %+v; want completed", rec)
	}
}

// TestInfeasibleHandoffRejectsInTheAnswer: a deadline below the job's
// critical path is refused at admission, and the refusal rides the answer:
// no notice follows.
func TestInfeasibleHandoffRejectsInTheAnswer(t *testing.T) {
	f := startHTTPFederation(t, 1, nil)
	waitJoined(t, f)
	if _, err := f.router.Submit(testJob("too-tight", 1), "S1", 0); err != nil {
		t.Fatal(err)
	}
	v := waitRouterTerminal(t, f.router, "too-tight", 5*time.Second)
	if v.State != service.StateRejected || !strings.Contains(v.Reason, "infeasible") {
		t.Fatalf("ended %+v; want rejected as infeasible", v)
	}
	if sent, _ := f.requests.counts(handoffPath); sent != 1 {
		t.Errorf("%d handoffs; want one", sent)
	}
	// The shard's OnTerminal ran inside the handoff, before the answer.
	if !noNotices(f) {
		t.Error("a terminal notice was queued; the answer carries the rejection")
	}
}

// TestDrainedJobIsNoticedDuringAHandoff: a handoff under way catches its
// job's completion or rejection, never a drain. The router voids a binding
// only on the drained notice, and refuses the state in an answer, so a
// swallowed drain would leave the job bound to a shard that is gone. s0
// runs in manual mode, so the job stays queued there; a waiter for it is
// held, as a handoff settling at that moment holds one, across s0's drain.
// The drained notice must still reach the router, which reallocates the job
// to s1.
func TestDrainedJobIsNoticedDuringAHandoff(t *testing.T) {
	f := startHTTPFederation(t, 2, func(i int, _ *service.Config) bool { return i == 0 })
	id := ""
	for i := 0; id == ""; i++ {
		if c := fmt.Sprintf("settling-%d", i); f.router.ring.Walk(c)[0] == "s0" {
			id = c
		}
	}
	if _, err := f.router.Submit(testJob(id, 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rec, ok := f.svcs[0].Job(id); ok && rec.State == service.StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached s0's queue", id)
		}
		time.Sleep(time.Millisecond)
	}

	w := f.members[0].await(id)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.svcs[0].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if out := f.members[0].release(id, w); out.state != "" {
		t.Errorf("the waiter caught %+v; a drain must go out as a notice", out)
	}
	f.members[0].Close()
	f.servers[0].Close()

	v := waitRouterTerminal(t, f.router, id, 10*time.Second)
	if v.State != service.StateCompleted || v.Shard != "s1" {
		t.Errorf("%s ended %+v; want completed on s1", id, v)
	}
	if m := f.router.Metrics(); m.Revocations != 1 || m.Reallocated != 1 {
		t.Errorf("router metrics %+v; want the drained notice's one release and reallocation", m)
	}
}
