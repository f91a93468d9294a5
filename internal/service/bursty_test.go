package service

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// burstyOutcome is everything a bursty overload run decides, all of it a
// pure function of the seed: the server's admission counters, what the
// client was told, the terminal-state stream and the levels same-tick
// batch members booked.
type burstyOutcome struct {
	Metrics              tally // only the counters listed in runBursty
	Client429, Client503 int
	RetryAfterViolations int
	Terminal             map[string]uint64
	PlacerCommits        uint64
}

// burstyJobs is the bursty run's corpus size.
const burstyJobs = 500

// runBursty offers burstyJobs jobs of workload.Default(1)'s bursty flow to a
// manual-mode server on 2 domains with a 64-slot queue, cycling three
// priorities, and schedules 12 jobs after every 16 arrivals, so the backlog
// grows by four a step until shedding and 429s carry the overload. It ends
// with a Drain while the queue is still loaded. Every submission's wire
// deadline is its relative budget, re-anchored at the service's own
// arrival tick. jnl, when non-nil, journals the run; reg, when non-nil,
// is the server's registry.
func runBursty(t *testing.T, placers int, jnl *journal.Journal, reg *telemetry.Registry) (burstyOutcome, uint64) {
	t.Helper()
	gen := workload.New(workload.Default(1))
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	out := burstyOutcome{Terminal: map[string]uint64{}}
	s := newServer(t, Config{
		Env:        gen.Environment(2),
		QueueCap:   64,
		Telemetry:  reg,
		Journal:    jnl,
		Sched:      metasched.Config{Seed: 1, Placers: placers},
		OnTerminal: func(r Record) { out.Terminal[r.State]++ },
	})
	var clientAccepted uint64
	for i, a := range gen.FlowWith(workload.ArrivalSpec{Kind: workload.ProcBursty}, 0, burstyJobs, 0) {
		wire := jobio.FromJob(a.Job)
		wire.Deadline = int64(a.Job.Deadline - a.At)
		_, err := s.Submit(wire, "S1", i%3)
		var se *SubmitError
		switch {
		case err == nil:
			clientAccepted++
		case !errors.As(err, &se):
			t.Fatalf("submit %s: %v", wire.Name, err)
		case se.Code == CodeOverloaded || se.Code == CodeDraining:
			if se.Code == CodeOverloaded {
				out.Client429++
			} else {
				out.Client503++
			}
			if se.RetryAfter <= 0 {
				out.RetryAfterViolations++
			}
		case se.Code != CodeInfeasible:
			t.Fatalf("submit %s: unexpected admission error: %v", wire.Name, err)
		}
		if (i+1)%16 == 0 {
			s.Process(12)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	m := readTally(s)
	out.Metrics = tally{
		Submitted: m.Submitted, Accepted: m.Accepted, Completed: m.Completed,
		Rejected: m.Rejected, Shed: m.Shed, Infeasible: m.Infeasible,
		Overloaded: m.Overloaded, Drained: m.Drained,
		QueueHighWater: m.QueueHighWater, EngineNow: m.EngineNow,
	}
	out.PlacerCommits = reg.Counter("grid_placer_commits_total", "").Value()
	return out, clientAccepted
}

// TestBurstyOverloadMatchesRecordedRun holds a seeded bursty overload run
// to the outcome recorded for it: at placers 0 the baseline the scale
// harness was gated against, at placers 4 the same flow in same-tick
// batches. Any change to admission, shedding, planning or drain that moves
// one job's fate moves a count here; an intended one updates the row in
// the same change.
func TestBurstyOverloadMatchesRecordedRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		placers int
		want    burstyOutcome
	}{
		{"placers=0", 0, burstyOutcome{
			Metrics: tally{
				Submitted: 500, Accepted: 476, Completed: 101, Rejected: 319,
				Shed: 48, Infeasible: 0, Overloaded: 24, Drained: 56,
				QueueHighWater: 64, EngineNow: 841,
			},
			Client429: 24,
			Terminal:  map[string]uint64{StateCompleted: 101, StateDrained: 56, StateRejected: 319},
		}},
		{"placers=4", 4, burstyOutcome{
			Metrics: tally{
				Submitted: 500, Accepted: 476, Completed: 35, Rejected: 385,
				Shed: 48, Infeasible: 0, Overloaded: 24, Drained: 56,
				QueueHighWater: 64, EngineNow: 313,
			},
			Client429:     24,
			Terminal:      map[string]uint64{StateCompleted: 35, StateDrained: 56, StateRejected: 385},
			PlacerCommits: 26,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, _ := runBursty(t, tc.placers, nil, nil); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("run diverged from the recorded one:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// TestBurstyOverloadInvariants checks the bursty run's accounting at both
// placement widths, independent of the recorded counts: the client saw
// what the server counted, every refusal carried a retry hint, the
// terminal-state stream agrees with the counters, every accepted job ended
// completed, drained, shed or rejected in flight, and the run really
// exercised completion, 429s and drain-under-load.
func TestBurstyOverloadInvariants(t *testing.T) {
	for _, placers := range []int{0, 4} {
		got, clientAccepted := runBursty(t, placers, nil, nil)
		m := got.Metrics
		if clientAccepted != m.Accepted {
			t.Errorf("placers=%d: client accepted %d != server accepted %d", placers, clientAccepted, m.Accepted)
		}
		if uint64(got.Client429) != m.Overloaded {
			t.Errorf("placers=%d: client 429s %d != server overloaded %d", placers, got.Client429, m.Overloaded)
		}
		if got.RetryAfterViolations != 0 {
			t.Errorf("placers=%d: %d refusals lacked a usable Retry-After", placers, got.RetryAfterViolations)
		}
		if got.Terminal[StateCompleted] != m.Completed || got.Terminal[StateDrained] != m.Drained {
			t.Errorf("placers=%d: terminal stream %v disagrees with completed %d, drained %d",
				placers, got.Terminal, m.Completed, m.Drained)
		}
		// Rejected also counts submit-time infeasible refusals.
		if m.Completed+m.Drained+(m.Rejected-m.Infeasible) != m.Accepted {
			t.Errorf("placers=%d: accepted %d != completed %d + drained %d + rejected after admission %d",
				placers, m.Accepted, m.Completed, m.Drained, m.Rejected-m.Infeasible)
		}
		if m.Completed == 0 || got.Client429 == 0 || m.Drained == 0 {
			t.Errorf("placers=%d: scenario too tame: %+v", placers, got)
		}
	}
}
