package federation

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// syncProbe is a shard that reads its router's journal fsync count as each
// handoff arrives, then answers it with the job completed.
type syncProbe struct {
	fsyncs *telemetry.Counter
	atSend chan uint64
}

func (p *syncProbe) Name() string { return "s0" }

func (p *syncProbe) Handoff(context.Context, *Handoff) (*HandoffResult, error) {
	p.atSend <- p.fsyncs.Value()
	return &HandoffResult{Accepted: true, State: service.StateCompleted}, nil
}

func (p *syncProbe) Revoke(context.Context, *RevokeRequest) (*RevokeResult, error) {
	return nil, errors.New("probe: no revokes")
}

func (p *syncProbe) Ping(context.Context) error { return nil }

// syncedRouter builds a router, not started, over a journal that syncs
// every record and a probe shard that reads that journal's fsync counter.
func syncedRouter(t *testing.T) (*Router, *syncProbe) {
	t.Helper()
	reg := telemetry.NewRegistry()
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncAlways,
		IsTerminal: service.Terminal, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	probe := &syncProbe{fsyncs: reg.Counter("grid_journal_fsyncs_total", ""), atSend: make(chan uint64, 1)}
	r, err := New(Config{Shards: []ShardClient{probe}, Journal: jnl, Seed: 1, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, probe
}

// TestRouterSyncsWhatItAcknowledges: each router record is on disk when
// the step that acknowledges it happens, by the call DESIGN §11 names —
// Submit before it answers (row 1), the dispatcher before the handoff
// leaves (row 2), the answer's resolution (row 5) and HandleTerminal before
// it returns (row 5). The fsync count is read from the journal's counter,
// never through Job, which syncs too.
func TestRouterSyncsWhatItAcknowledges(t *testing.T) {
	r, probe := syncedRouter(t)
	if _, err := r.Submit(testJob("a", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	if n := probe.fsyncs.Value(); n != 1 {
		t.Fatalf("Submit answered after %d fsyncs, want the accept's 1", n)
	}
	r.Start()
	select {
	case n := <-probe.atSend:
		if n != 2 {
			t.Fatalf("the handoff left after %d fsyncs, want 2: the accept and the binding", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no handoff")
	}
	waitFor(t, "the outcome's fsync", func() bool { return probe.fsyncs.Value() == 3 })

	r, probe = syncedRouter(t)
	r.mu.Lock()
	b := r.newRecordLocked("b", "S1", 0, StateHanded)
	b.Shard = "s0"
	r.mu.Unlock()
	r.HandleTerminal(&TerminalNotice{Shard: "s0", Job: "b", State: service.StateCompleted})
	if n := probe.fsyncs.Value(); n != 1 {
		t.Fatalf("HandleTerminal returned after %d fsyncs, want the outcome's 1", n)
	}
}
