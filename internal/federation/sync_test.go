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
// the step that acknowledges it happens, by the call DESIGN §11 names.
// Submit binds the job in its accept's lock section, so the accept and the
// binding share the one fsync before Submit answers (rows 1 and 2), and the
// handoff leaves after it and no other. An outcome, from a handoff's answer
// or from a notice, mirrors the shard's durable record (row 5): it is
// appended without a sync, and Job shows it only after the sync it rides.
// The fsync count is read from the journal's counter; Quiesced, which
// syncs nothing, says when the outcome has moved the entry.
func TestRouterSyncsWhatItAcknowledges(t *testing.T) {
	r, probe := syncedRouter(t)
	if _, err := r.Submit(testJob("a", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	if n := probe.fsyncs.Value(); n != 1 {
		t.Fatalf("Submit answered after %d fsyncs, want the accept and binding's 1", n)
	}
	r.Start()
	select {
	case n := <-probe.atSend:
		if n != 1 {
			t.Fatalf("the handoff left after %d fsyncs, want 1: the accept and the binding's", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no handoff")
	}
	waitFor(t, "the answer's outcome", r.Quiesced)
	if n := probe.fsyncs.Value(); n != 1 {
		t.Fatalf("the answer's outcome cost %d fsyncs, want none of its own", n-1)
	}
	if v, _ := r.Job("a"); v.State != service.StateCompleted || probe.fsyncs.Value() != 2 {
		t.Fatalf("Job showed %+v after %d fsyncs, want completed after 2", v, probe.fsyncs.Value())
	}

	r, probe = syncedRouter(t)
	r.mu.Lock()
	b := r.newRecordLocked("b", "S1", 0, StateHanded)
	b.Shard = "s0"
	r.mu.Unlock()
	r.HandleTerminal(&TerminalNotice{Shard: "s0", Job: "b", State: service.StateCompleted})
	if n := probe.fsyncs.Value(); n != 0 {
		t.Fatalf("HandleTerminal returned after %d fsyncs, want 0: the outcome rides the next sync", n)
	}
	if v, _ := r.Job("b"); v.State != service.StateCompleted || probe.fsyncs.Value() != 1 {
		t.Fatalf("Job showed %+v after %d fsyncs, want completed after 1", v, probe.fsyncs.Value())
	}
}
