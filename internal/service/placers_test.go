package service

import (
	"reflect"
	"testing"

	"repro/internal/metasched"
)

// placersServiceRun drives one deterministic manual-mode run with batched
// concurrent placement: submit everything, schedule with Process(-1)
// (which dequeues in groups of Sched.Placers), then quiesce.
func placersServiceRun(t *testing.T, placers int) ([]Record, tally) {
	t.Helper()
	s := newServer(t, Config{
		QueueCap: 64,
		Sched:    metasched.Config{Seed: 7, Placers: placers},
	})
	for i := 0; i < 24; i++ {
		deadline := int64(200)
		if i%8 == 7 {
			// Passes admission (fastest-tier critical path is 5) but is
			// unmeetable once earlier batch members hold the fast nodes,
			// pinning the in-batch rejection path.
			deadline = 5
		}
		if _, err := s.Submit(wireJob(jobName(i), deadline), "S1", i%3); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	s.Process(-1)
	s.Quiesce()
	return s.Jobs(), readTally(s)
}

func jobName(i int) string {
	return "pj-" + string(rune('a'+i/10)) + string(rune('0'+i%10))
}

// TestServicePlacersDeterministic: with -placers=4 the whole service run —
// per-job records and counters — must be a pure function of the seed.
// This covers the full stack TestBurstyOverloadMatchesRecordedRun's
// placers=4 row relies on: batched dequeue, shared-tick arrival, planning
// in the arbiter's order.
func TestServicePlacersDeterministic(t *testing.T) {
	ja, ma := placersServiceRun(t, 4)
	jb, mb := placersServiceRun(t, 4)
	if !reflect.DeepEqual(ja, jb) {
		t.Fatal("two identical placers=4 service runs produced different records")
	}
	if !reflect.DeepEqual(ma, mb) {
		t.Fatalf("metrics diverged: %+v vs %+v", ma, mb)
	}
	completed := 0
	for _, r := range ja {
		if r.State == "completed" {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("run completed no jobs — batch path never activated anything")
	}
}
