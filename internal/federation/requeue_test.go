package federation

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/breaker"
)

// TestRequeueLaterLeaksNoGoroutines pins the parked-job path: a job with no
// eligible shard is re-queued every heartbeat interval, and each re-queue
// used to start a goroutine that lived until Close. With its only shard
// dead, one job is re-queued a few hundred times; the goroutine count must
// stay at the router's own loops.
func TestRequeueLaterLeaksNoGoroutines(t *testing.T) {
	const heartbeat = 2 * time.Millisecond
	before := runtime.NumGoroutine()
	r, err := New(Config{
		Shards: []ShardClient{&scriptShard{name: "s0"}}, Seed: 1,
		HeartbeatInterval: heartbeat, Breaker: breaker.Config{Threshold: 1}, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()

	deadline := time.Now().Add(5 * time.Second)
	for closed(t, r, "s0") {
		if time.Now().After(deadline) {
			t.Fatal("unreachable shard never declared dead")
		}
		time.Sleep(heartbeat)
	}
	if _, err := r.Submit(testJob("parked", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * heartbeat)
	if view, _ := r.Job("parked"); view.State != StateQueued {
		t.Fatalf("parked job = %+v, want queued", view)
	}
	// One dispatcher, one heartbeat loop, and slack for the timer and
	// ping goroutines in flight at the instant of the count.
	const own, slack = 2, 4
	if got := runtime.NumGoroutine(); got > before+own+slack {
		t.Fatalf("%d goroutines after ~200 requeues of one parked job, %d before Start: requeueLater leaks",
			got, before)
	}
}
