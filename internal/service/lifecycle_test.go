package service

import (
	"cmp"
	"maps"
	"strings"
	"testing"

	"repro/internal/journal"
)

// eventNames names each lifecycle event for subtest names.
var eventNames = [...]string{
	evAccept: "accept", evInfeasible: "infeasible", evSchedule: "schedule",
	evComplete: "complete", evReject: "reject", evShed: "shed", evDrain: "drain",
	evRevoke: "revoke", evRaise: "raise",
}

// lifecycleStates is every state a record can hold, "" (not yet ledgered)
// included.
var lifecycleStates = []string{"", StateQueued, StateScheduled, StateCompleted,
	StateRejected, StateDrained, StateRevoked}

// serviceSeries reads every grid_service_* sample the server exposes.
func serviceSeries(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for name, v := range scrape(t, s.Handler()) {
		if strings.HasPrefix(name, "grid_service_") {
			out[name] = v
		}
	}
	return out
}

// TestMoveLockedRefusesUnlistedPairs fires every (state, event) pair the
// lifecycle table does not list through moveLocked, on a journaled server
// with a terminal stream. Each must be refused with errRefused and leave the
// record, the ledger, the journal's NextLSN, every grid_service_* series and
// the terminal stream as they were.
func TestMoveLockedRefusesUnlistedPairs(t *testing.T) {
	refused := 0
	for _, from := range lifecycleStates {
		for ev := range event(len(lifecycle)) {
			if _, listed := lifecycle[ev][from]; listed {
				continue
			}
			refused++
			t.Run(cmp.Or(from, "unledgered")+"/"+eventNames[ev], func(t *testing.T) {
				jnl, _ := openJournal(t, t.TempDir())
				defer jnl.Close()
				fired := 0
				s := newServer(t, Config{Journal: jnl, OnTerminal: func(Record) { fired++ }})
				rec := &Record{ID: "j", Strategy: "S1", Priority: 2, State: from, Reason: "before", Epoch: 3}
				if from != "" {
					s.ledgerLocked(rec)
				}
				want := *rec
				lsn, series := jnl.Stats().NextLSN, serviceSeries(t, s)

				s.mu.Lock()
				err := s.moveLocked(rec, ev, "after", journal.Record{Strategy: "S2", Priority: 5, Epoch: 7})
				ledgered := len(s.records)
				s.mu.Unlock()

				if err != errRefused {
					t.Errorf("moveLocked = %v, want errRefused", err)
				}
				if *rec != want {
					t.Errorf("record %+v, want %+v", *rec, want)
				}
				if (ledgered == 1) != (from != "") {
					t.Errorf("ledger holds %d records after refusing a move from %q", ledgered, from)
				}
				if n := jnl.Stats().NextLSN - lsn; n != 0 {
					t.Errorf("journal gained %d records", n)
				}
				if got := serviceSeries(t, s); !maps.Equal(got, series) {
					t.Errorf("grid_service_* series moved:\n got  %v\n want %v", got, series)
				}
				if fired != 0 {
					t.Errorf("OnTerminal fired %d times", fired)
				}
			})
		}
	}
	rows := 0
	for _, row := range lifecycle {
		rows += len(row)
	}
	if listed := len(lifecycleStates)*len(eventNames) - refused; listed != rows {
		t.Errorf("%d pairs listed of %d rows: a row names a state or event outside the test's lists", listed, rows)
	}
}

// TestTerminalAndTombstoneReadTheLifecycle pins what Terminal and Tombstone
// read off the lifecycle table.
func TestTerminalAndTombstoneReadTheLifecycle(t *testing.T) {
	for _, state := range append(lifecycleStates, "unknown") {
		terminal := state == StateCompleted || state == StateRejected || state == StateDrained || state == StateRevoked
		tombstone := state == StateDrained || state == StateRevoked
		if Terminal(state) != terminal || Tombstone(state) != tombstone {
			t.Errorf("%q: Terminal %v, Tombstone %v; want %v, %v", state, Terminal(state), Tombstone(state), terminal, tombstone)
		}
	}
}
