package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/metasched"
)

// settleAsync runs Settle on its own goroutine and sends the record it
// returns; a sync error fails the test.
func settleAsync(t *testing.T, s *Server, ctx context.Context, id string) <-chan Record {
	done := make(chan Record, 1)
	go func() {
		rec, err := s.Settle(ctx, id)
		if err != nil {
			t.Errorf("Settle(%s): %v", id, err)
		}
		done <- rec
	}()
	return done
}

// settleWithin runs Settle on its own goroutine and fails the test unless
// it returns within d.
func settleWithin(t *testing.T, s *Server, ctx context.Context, id string, d time.Duration) Record {
	t.Helper()
	done := settleAsync(t, s, ctx, id)
	select {
	case rec := <-done:
		return rec
	case <-time.After(d):
		t.Fatalf("Settle(%s) still waiting after %s", id, d)
		return Record{}
	}
}

// stalledServer starts a server whose engine stops inside the pass that
// takes the job "blocker", which it submits; release lets the pass go on.
// Defer release: Drain waits for the pass.
func stalledServer(t *testing.T) (s *Server, release func()) {
	t.Helper()
	blocked, r := make(chan struct{}), make(chan struct{})
	var first, once sync.Once
	s = newServer(t, Config{Sched: metasched.Config{Tracer: metasched.TracerFunc(func(e metasched.Event) {
		if e.Job == "blocker" {
			first.Do(func() { close(blocked); <-r })
		}
	})}})
	s.Start()
	if _, err := s.Submit(wireJob("blocker", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	<-blocked
	return s, func() { once.Do(func() { close(r) }) }
}

func TestSettleDecidesAJobAtAnIdleEngine(t *testing.T) {
	s := newServer(t, Config{})
	s.Start()
	defer s.Drain(context.Background())
	for _, id := range []string{"a", "b", "c"} {
		if _, err := s.Submit(wireJob(id, 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
		if rec := settleWithin(t, s, context.Background(), id, 5*time.Second); rec.State != StateCompleted {
			t.Fatalf("Settle(%s) = %+v; want completed", id, rec)
		}
	}
}

func TestSettleReturnsAtOnceWhenItCannotWait(t *testing.T) {
	t.Run("manual mode", func(t *testing.T) {
		s := newServer(t, Config{})
		if _, err := s.Submit(wireJob("j", 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
		if rec := settleWithin(t, s, context.Background(), "j", time.Second); rec.State != StateQueued {
			t.Fatalf("Settle = %+v; want queued", rec)
		}
	})
	t.Run("work queued ahead", func(t *testing.T) {
		s, release := stalledServer(t)
		defer s.Drain(context.Background())
		defer release()
		for _, id := range []string{"ahead", "behind"} {
			if _, err := s.Submit(wireJob(id, 60), "S1", 0); err != nil {
				t.Fatal(err)
			}
		}
		if rec := settleWithin(t, s, context.Background(), "behind", time.Second); rec.State != StateQueued {
			t.Fatalf("Settle = %+v; want queued", rec)
		}
	})
	t.Run("unknown job", func(t *testing.T) {
		s := newServer(t, Config{})
		s.Start()
		defer s.Drain(context.Background())
		if rec := settleWithin(t, s, context.Background(), "nobody", time.Second); rec.State != "" {
			t.Fatalf("Settle = %+v; want the zero record", rec)
		}
	})
}

// TestSettleWaitsForThePassThatTakesTheJob: a job queued alone behind a
// pass under way waits for the next pass, which finds nothing more queued
// and runs the engine dry.
func TestSettleWaitsForThePassThatTakesTheJob(t *testing.T) {
	s, release := stalledServer(t)
	defer s.Drain(context.Background())
	defer release()
	if _, err := s.Submit(wireJob("next", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	done := settleAsync(t, s, context.Background(), "next")
	select {
	case rec := <-done:
		t.Fatalf("Settle returned %+v while the pass before the job's was under way", rec)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case rec := <-done:
		if rec.State != StateCompleted {
			t.Fatalf("Settle = %+v; want completed", rec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Settle still waiting after the job's pass")
	}
}

func TestSettleEndsOnContextAndDrain(t *testing.T) {
	s, release := stalledServer(t)
	defer release()
	if _, err := s.Submit(wireJob("waiting", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if rec := settleWithin(t, s, ctx, "waiting", 5*time.Second); rec.State != StateQueued {
		t.Fatalf("Settle past its context = %+v; want queued", rec)
	}

	done := settleAsync(t, s, context.Background(), "waiting")
	time.Sleep(10 * time.Millisecond)
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case rec := <-done:
		if rec.State != StateQueued {
			t.Fatalf("Settle during the drain = %+v; want queued", rec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not end the wait")
	}
	release()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if rec, _ := s.Job("waiting"); rec.State != StateDrained {
		t.Fatalf("after the drain: %+v; want drained", rec)
	}
}
