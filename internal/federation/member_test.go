package federation

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// TestMemberRetryWaitsLeakNothingAndKeepWakeups pins the member's retry
// wait. It used to park a helper goroutine on the member's cond for every
// wait, until Close: each stale helper then swallowed the Signal of one
// later terminal notice (sync.Cond wakes waiters in arrival order), which
// sat undelivered. A router that refuses the first joins makes the member
// wait several times; afterwards two terminal notices must both arrive,
// and the member must be back to its one notifier goroutine.
func TestMemberRetryWaitsLeakNothingAndKeepWakeups(t *testing.T) {
	const refusals = 8
	var joins atomic.Int32
	delivered := make(chan string, 2) // sized to the two notices sent below
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/v1/federation/join":
			if joins.Add(1) <= refusals {
				http.Error(w, "not ready", http.StatusServiceUnavailable)
				return
			}
			writeJSON(w, http.StatusOK, JoinResponse{})
		case "/v1/federation/terminal":
			var n TerminalNotice
			if err := json.NewDecoder(req.Body).Decode(&n); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			delivered <- n.Job
			w.WriteHeader(http.StatusOK)
		default:
			http.NotFound(w, req)
		}
	}))
	defer router.Close()

	svc, err := service.New(service.Config{Env: testEnv()})
	if err != nil {
		t.Fatal(err)
	}
	member := NewMember(MemberConfig{
		Shard: "s0", Router: router.URL,
		// No idle connections: their reader/writer goroutines would blur
		// the count below.
		Client:    &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}},
		RetryBase: time.Millisecond, RetryCap: 4 * time.Millisecond,
	})
	member.Bind(svc)
	before := runtime.NumGoroutine()
	member.Start()
	defer member.Close()

	deadline := time.Now().Add(5 * time.Second)
	for joins.Load() <= refusals {
		if time.Now().After(deadline) {
			t.Fatalf("member gave up joining after %d attempts", joins.Load())
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range []string{"first", "second"} {
		member.Terminal(service.Record{ID: id, State: service.StateCompleted})
		select {
		case got := <-delivered:
			if got != id {
				t.Fatalf("delivered %q, want %q", got, id)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("terminal notice %q was never delivered: its wake-up was swallowed", id)
		}
	}

	// The join loop has exited; only the notifier remains. Allow a little
	// slack for connection goroutines still unwinding.
	const slack = 2
	for runtime.NumGoroutine() > before+1+slack {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %d failed joins, %d before Start: retry waits leak",
				runtime.NumGoroutine(), refusals, before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
