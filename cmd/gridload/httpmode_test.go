package main

import (
	"testing"
	"time"

	"repro/internal/service"
)

// TestTargetPoolRoundRobin pins the fleet rotation and the per-target
// backoff semantics: a backed-off target is skipped while others are
// eligible, re-enters the rotation when its hint expires, and when the
// whole fleet is backing off pick reports the soonest expiry.
func TestTargetPoolRoundRobin(t *testing.T) {
	p := newTargetPool([]string{"a", "b", "c"})
	now := time.Unix(1000, 0)
	var order []string
	for i := 0; i < 6; i++ {
		idx, wait := p.pick(now)
		if wait != 0 {
			t.Fatalf("pick %d: wait %s with no backoff", i, wait)
		}
		order = append(order, p.url(idx))
	}
	if got, want := len(order), 6; got != want {
		t.Fatalf("picked %d", got)
	}
	for i, u := range []string{"a", "b", "c", "a", "b", "c"} {
		if order[i] != u {
			t.Fatalf("rotation = %v", order)
		}
	}

	// Back off "b": the rotation closes over {a, c}.
	p.setBackoff(1, 10*time.Second, now)
	order = nil
	for i := 0; i < 4; i++ {
		idx, wait := p.pick(now)
		if wait != 0 {
			t.Fatalf("wait %s while a and c are eligible", wait)
		}
		order = append(order, p.url(idx))
	}
	for _, u := range order {
		if u == "b" {
			t.Fatalf("picked backed-off target: %v", order)
		}
	}

	// Back off the rest too: pick returns the soonest expiry and its wait.
	p.setBackoff(0, 30*time.Second, now)
	p.setBackoff(2, 20*time.Second, now)
	idx, wait := p.pick(now)
	if p.url(idx) != "b" || wait != 10*time.Second {
		t.Fatalf("all-backed-off pick = %s after %s, want b after 10s", p.url(idx), wait)
	}

	// Hints only extend: a shorter hint cannot shrink the window.
	p.setBackoff(1, time.Second, now)
	if idx, wait = p.pick(now); p.url(idx) != "b" || wait != 10*time.Second {
		t.Fatalf("shrunk backoff: %s after %s", p.url(idx), wait)
	}

	// After expiry the target is eligible again.
	if idx, wait = p.pick(now.Add(11 * time.Second)); p.url(idx) != "b" || wait != 0 {
		t.Fatalf("post-expiry pick = %s after %s", p.url(idx), wait)
	}
}

// TestHTTPModeMultiTarget drives two live servers through the fleet path:
// submissions round-robin across both, the counter diff and terminal poll
// aggregate across both ledgers, and the scrape merges both histograms.
func TestHTTPModeMultiTarget(t *testing.T) {
	targets := make([]string, 2)
	servers := make([]*service.Server, 2)
	for i := range servers {
		servers[i], targets[i] = newTestServer(t, 64, uint64(i)+7)
	}
	rep, err := run(testOptions(targets...))
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Counts
	if c.Submitted != 40 {
		t.Errorf("fleet saw %d submissions, want 40", c.Submitted)
	}
	if uint64(c.ClientAccepted) != c.Accepted {
		t.Errorf("client accepted %d != fleet accepted %d", c.ClientAccepted, c.Accepted)
	}
	if len(c.TerminalByState) == 0 {
		t.Error("no accepted job reached a terminal state within the wait")
	}
	// Round-robin with a generous queue must land work on BOTH servers.
	for i, srv := range servers {
		if srv.Metrics().Accepted == 0 {
			t.Errorf("server %d accepted no submissions", i)
		}
	}
}
