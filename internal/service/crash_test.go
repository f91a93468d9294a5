package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/journal"
	"repro/internal/metasched"
)

// The kill-restart chaos harness. The test binary re-execs itself as a
// miniature gridd (TestMain dispatches on GRIDD_CRASH_CHILD): the child
// opens the write-ahead journal, restores, and serves the HTTP API; the
// parent submits jobs, hard-kills the child with SIGKILL at randomized
// points in the lifecycle, restarts it against the same journal
// directory, and checks the two crash-safety invariants after every
// kill:
//
//  1. zero accepted-job loss — every ID that got a 202 is in the journal
//     after the kill and reaches a terminal state by the end of the run;
//  2. zero double-execution — once a job is observed terminal, every
//     later incarnation reports the same terminal state, and
//     resubmitting any accepted ID is always refused as a duplicate.

const (
	crashChildEnv = "GRIDD_CRASH_CHILD"
	crashDirEnv   = "GRIDD_CRASH_DIR"
	crashAddrEnv  = "GRIDD_CRASH_ADDR_FILE"
)

func TestMain(m *testing.M) {
	chaostest.Main(m, crashChildEnv, map[string]func(){"1": crashChild})
}

// crashChild is the re-exec'd server: journal + restore + HTTP on an
// ephemeral port, address published through a rename so the parent never
// reads a half-written file. It runs until SIGKILLed (most cycles) or
// drains on SIGTERM (the final one).
func crashChild() {
	dir := os.Getenv(crashDirEnv)
	addrFile := os.Getenv(crashAddrEnv)

	jnl, recovered, err := journal.Open(journal.Options{
		Dir:        dir,
		Fsync:      journal.FsyncAlways, // a 202 must mean "on disk"
		IsTerminal: Terminal,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: open journal: %v\n", err)
		os.Exit(1)
	}
	s, err := New(Config{Env: testEnv(), QueueCap: 64, Journal: jnl, Sched: metasched.Config{Seed: 1}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: new server: %v\n", err)
		os.Exit(1)
	}
	if _, err := s.Restore(recovered); err != nil {
		fmt.Fprintf(os.Stderr, "child: restore: %v\n", err)
		os.Exit(1)
	}
	s.Start()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: listen: %v\n", err)
		os.Exit(1)
	}
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(l.Addr().String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "child: addr file: %v\n", err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		fmt.Fprintf(os.Stderr, "child: addr file: %v\n", err)
		os.Exit(1)
	}
	go http.Serve(l, s.Handler())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	<-sigc
	if err := s.Drain(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "child: drain: %v\n", err)
		os.Exit(1)
	}
	if err := jnl.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "child: close journal: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func spawnChild(t *testing.T, dir, addrFile string) *chaostest.Proc {
	t.Helper()
	return chaostest.Spawn(t, crashChildEnv, "1",
		[]string{crashDirEnv + "=" + dir, crashAddrEnv + "=" + addrFile}, chaostest.AddrFile(addrFile))
}

// crashSubmit posts one job to the child; 0 means the kill raced the
// request — a torn connection is not a protocol violation, it just means
// this submit was never acknowledged.
func crashSubmit(addr, id string) int {
	body, _ := json.Marshal(SubmitRequest{Job: wireJob(id, 60), Strategy: "S1"})
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCrashRestartChaos runs seeded SIGKILL/restart cycles against one
// journal directory. Override the defaults with GRIDD_CRASH_CYCLES and
// GRIDD_CRASH_SEED (the CI soak job turns the cycle count up).
func TestCrashRestartChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec chaos harness skipped in -short")
	}
	cycles := 20
	if v := os.Getenv("GRIDD_CRASH_CYCLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("GRIDD_CRASH_CYCLES: %v", err)
		}
		cycles = n
	}
	seed := int64(1)
	if v := os.Getenv("GRIDD_CRASH_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("GRIDD_CRASH_SEED: %v", err)
		}
		seed = n
	}
	rng := rand.New(rand.NewSource(seed))

	dir := t.TempDir()
	addrFile := filepath.Join(t.TempDir(), "addr")
	accepted := map[string]bool{}       // every ID that ever got a 202
	terminalSeen := map[string]string{} // first terminal state observed per ID
	acceptedOrder := []string{}

	for cycle := 0; cycle < cycles; cycle++ {
		r := spawnChild(t, dir, addrFile)

		// Submit a seeded burst of fresh jobs.
		for i, n := 0, 3+rng.Intn(6); i < n; i++ {
			id := fmt.Sprintf("c%d-j%d", cycle, i)
			switch code := crashSubmit(r.Addr, id); code {
			case http.StatusAccepted:
				accepted[id] = true
				acceptedOrder = append(acceptedOrder, id)
			case 0, http.StatusTooManyRequests:
				// torn by the kill race, or backpressure — either way the
				// job was never acknowledged, so it owes us nothing
			default:
				t.Fatalf("cycle %d: submit %s = %d\nchild output:\n%s", cycle, id, code, r.Output())
			}
		}
		// Zero double-execution, part one: an accepted ID stays refused
		// forever, across any number of restarts.
		if len(acceptedOrder) > 0 {
			dup := acceptedOrder[rng.Intn(len(acceptedOrder))]
			if code := crashSubmit(r.Addr, dup); code != http.StatusConflict && code != 0 {
				t.Fatalf("cycle %d: resubmit of accepted %s = %d, want 409", cycle, dup, code)
			}
		}

		// Let the engine get somewhere unpredictable, then pull the plug.
		time.Sleep(time.Duration(rng.Intn(30)) * time.Millisecond)
		r.Kill(t)

		// Read the journal the child left behind, with no process holding it.
		rec, err := journal.Recover(dir)
		if err != nil {
			t.Fatalf("cycle %d: journal unreadable after SIGKILL: %v", cycle, err)
		}
		onDisk := map[string]string{}
		for _, js := range rec.Jobs {
			onDisk[js.Job] = js.State
		}
		// Zero accepted-job loss: a 202 means the accept was fsynced first.
		for id := range accepted {
			if _, ok := onDisk[id]; !ok {
				t.Fatalf("cycle %d: accepted job %s missing from journal after SIGKILL", cycle, id)
			}
		}
		// Zero double-execution, part two: terminal states are final.
		for id, state := range onDisk {
			if prev, ok := terminalSeen[id]; ok {
				if state != prev {
					t.Fatalf("cycle %d: %s was terminal %q, now %q", cycle, id, prev, state)
				}
			} else if Terminal(state) {
				terminalSeen[id] = state
			}
		}
	}

	// Final incarnation: everything ever accepted must converge to a
	// terminal state, then the child drains cleanly on SIGTERM.
	r := spawnChild(t, dir, addrFile)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + r.Addr + "/v1/jobs")
		if err != nil {
			t.Fatalf("final poll: %v", err)
		}
		var jobs []Record
		if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
			t.Fatalf("final poll: %v", err)
		}
		resp.Body.Close()
		states := map[string]string{}
		for _, rec := range jobs {
			states[rec.ID] = rec.State
		}
		pending := 0
		for id := range accepted {
			st, ok := states[id]
			if !ok {
				t.Fatalf("accepted job %s lost by final incarnation", id)
			}
			if !Terminal(st) {
				pending++
			}
		}
		if pending == 0 {
			for id, prev := range terminalSeen {
				if states[id] != prev {
					t.Fatalf("final: %s was terminal %q, now %q", id, prev, states[id])
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d accepted jobs still non-terminal at deadline", pending)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := r.Terminate(); err != nil {
		t.Fatalf("final drain failed: %v\nchild output:\n%s", err, r.Output())
	}
	t.Logf("chaos: %d cycles, %d accepted, %d observed terminal mid-run",
		cycles, len(accepted), len(terminalSeen))
}
