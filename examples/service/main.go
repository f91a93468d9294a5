// Service example: run the metascheduler as an embedded long-running
// service — overload a tiny admission queue so backpressure and priority
// shedding kick in, watch a circuit breaker quarantine a failing domain,
// and finish with a graceful drain that snapshots still-queued work.
//
// This uses the service layer in-process (manual mode, so the run is
// deterministic); cmd/gridd wraps the same layer in an HTTP daemon.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/breaker"
	"repro/internal/faults"
	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/service"
)

func main() {
	// Two domains, four node tiers each.
	perfs := []float64{1.0, 0.5, 0.33, 0.27}
	var nodes []*resource.Node
	id := 0
	for d := 0; d < 2; d++ {
		for _, p := range perfs {
			nodes = append(nodes, resource.NewNode(resource.NodeID(id),
				fmt.Sprintf("n%d", id), p, fmt.Sprintf("dom-%d", d)))
			id++
		}
	}
	snapshot := filepath.Join(os.TempDir(), "service-example-drain.json")

	srv, err := service.New(service.Config{
		Env:          resource.NewEnvironment(nodes),
		QueueCap:     3, // tiny on purpose: we want overload behaviour
		SnapshotPath: snapshot,
		Breaker:      &breaker.Config{Threshold: 2, OpenBase: 500},
		Sched: metasched.Config{
			Seed: 1,
			// Every third activation loses a task mid-run, so the recovery
			// ladder and the breakers have something to do.
			Faults: faults.Config{TaskFailRate: 0.33, MaxRetries: 1, Seed: 9},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	wire := func(name string, deadline int64) jobio.Job {
		return jobio.Job{
			Name: name, Deadline: deadline,
			Tasks: []jobio.Task{
				{Name: "prep", BaseTime: 3, Volume: 30},
				{Name: "solve", BaseTime: 5, Volume: 50},
			},
			Edges: []jobio.Edge{{Name: "d", From: "prep", To: "solve", BaseTime: 2, Volume: 10}},
		}
	}

	// 1. Admission control: a deadline below the fastest-tier critical
	// path (8 ticks) is rejected before it ever reaches the engine.
	_, err = srv.Submit(wire("impossible", 6), "S1", 0)
	fmt.Printf("impossible deadline: %v\n", err)

	// 2. Backpressure and shedding: overfill the 3-slot queue.
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit(wire(fmt.Sprintf("batch-%d", i), 60), "S1", 1); err != nil {
			log.Fatal(err)
		}
	}
	_, err = srv.Submit(wire("walk-in", 60), "S1", 1)
	var se *service.SubmitError
	if errors.As(err, &se) {
		fmt.Printf("walk-in at equal priority: %s (retry after %s)\n", se.Code, se.RetryAfter)
	}
	if _, err := srv.Submit(wire("urgent", 60), "S1", 9); err != nil {
		log.Fatal(err)
	}
	victim, _ := srv.Job("batch-2")
	fmt.Printf("urgent admitted by shedding %s: %s\n", victim.ID, victim.Reason)

	// 3. Run the queue; the urgent job goes first.
	srv.Process(-1)
	srv.Quiesce()
	for _, rec := range srv.Jobs() {
		fmt.Printf("  %-12s %-10s prio=%d domain=%-6s finish=%d %s\n",
			rec.ID, rec.State, rec.Priority, rec.Domain, rec.Finish, rec.Reason)
	}
	fmt.Printf("breakers: %v\n", srv.BreakerStates())

	// 4. Graceful drain with work still queued: it lands in the snapshot.
	if _, err := srv.Submit(wire("left-behind", 60), "S1", 0); err != nil {
		log.Fatal(err)
	}
	if err := srv.Drain(context.Background()); err != nil {
		log.Fatal(err)
	}
	rec, _ := srv.Job("left-behind")
	fmt.Printf("after drain: %s is %s (%s)\n", rec.ID, rec.State, rec.Reason)
	f, err := os.Open(snapshot)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	saved, err := jobio.ReadJobs(f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot %s holds %d job(s): %s\n", snapshot, len(saved), saved[0].Name)

	m := srv.Metrics()
	fmt.Printf("totals: accepted=%d completed=%d rejected=%d shed=%d drained=%d\n",
		m.Accepted, m.Completed, m.Rejected, m.Shed, m.Drained)

	// 5. Crash safety: with a write-ahead journal, an accepted job
	// survives even a kill -9 — no drain, no snapshot, no goodbye. We
	// simulate the crash by abandoning a server mid-flight and recovering
	// its journal into a brand-new one. (cmd/gridd does exactly this on
	// startup when -journal-dir is set; see the README walkthrough for
	// the live kill -9 demo.)
	crashRecovery(nodes, wire)
}

// crashRecovery demonstrates the write-ahead journal: jobs accepted by a
// server that dies without draining are replayed into its successor.
func crashRecovery(nodes []*resource.Node, wire func(string, int64) jobio.Job) {
	dir, err := os.MkdirTemp("", "service-example-journal-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	jnl, recovered, err := journal.Open(journal.Options{
		Dir: dir, IsTerminal: service.Terminal,
	})
	if err != nil {
		log.Fatal(err)
	}
	victim, err := service.New(service.Config{
		Env:     resource.NewEnvironment(nodes),
		Journal: jnl,
		Sched:   metasched.Config{Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := victim.Restore(recovered); err != nil {
		log.Fatal(err)
	}
	// One job completes (its terminal state is journaled), one is still
	// queued when the "crash" hits.
	for _, name := range []string{"survivor-done", "survivor-queued"} {
		if _, err := victim.Submit(wire(name, 60), "S1", 0); err != nil {
			log.Fatal(err)
		}
	}
	victim.Process(1)
	victim.Quiesce()
	// CRASH. No Drain, no snapshot — the process is simply gone. Only the
	// journal survives.

	jnl2, recovered2, err := journal.Open(journal.Options{
		Dir: dir, IsTerminal: service.Terminal,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer jnl2.Close()
	heir, err := service.New(service.Config{
		Env:     resource.NewEnvironment(nodes),
		Journal: jnl2,
		Sched:   metasched.Config{Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := heir.Restore(recovered2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter simulated crash: restored=%d requeued=%d terminal=%d\n",
		stats.Restored, stats.Requeued, stats.Terminal)
	// The completed job is remembered (and still guards duplicates)...
	if _, err := heir.Submit(wire("survivor-done", 60), "S1", 0); err != nil {
		var se *service.SubmitError
		errors.As(err, &se)
		fmt.Printf("resubmitting survivor-done: %s\n", se.Code)
	}
	// ...and the queued one runs to completion on the new server.
	heir.Process(-1)
	heir.Quiesce()
	for _, name := range []string{"survivor-done", "survivor-queued"} {
		rec, _ := heir.Job(name)
		fmt.Printf("  %-16s %s\n", rec.ID, rec.State)
	}
	if err := heir.Drain(context.Background()); err != nil {
		log.Fatal(err)
	}
}
