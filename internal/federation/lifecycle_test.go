package federation

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/service"
)

// eventNames names each router lifecycle event for subtest names.
var eventNames = [...]string{
	evBind: "bind", evAnswer: "answer", evTombstone: "tombstone",
	evRevoke: "revoke", evRevoked: "revoked", evInFlight: "in-flight",
	evDrainedAt: "drained-at", evTerminal: "terminal", evDrain: "drain",
}

// routerStates is every state a router ledger entry can hold.
var routerStates = []string{StateQueued, StateHanded, StateRevoking,
	service.StateCompleted, service.StateRejected, service.StateDrained}

// fedSeries reads every grid_fed_* sample the router exposes.
func fedSeries(t *testing.T, r *Router) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for name, v := range scrape(t, r.Handler()) {
		if strings.HasPrefix(name, "grid_fed_") {
			out[name] = v
		}
	}
	return out
}

// TestRouterMoveRefusesUnlistedPairs fires through moveLocked every
// (state, event) pair the router's lifecycle table does not list, and every
// listed outcome row with a state that is no outcome. Each must be refused
// and leave the entry, the journal's NextLSN and every grid_fed_* series as
// they were.
func TestRouterMoveRefusesUnlistedPairs(t *testing.T) {
	type move struct {
		from  string
		ev    event
		state string
	}
	var moves []move
	listed, rows := 0, 0
	for _, row := range lifecycle {
		rows += len(row)
	}
	for _, from := range routerStates {
		for ev := range event(len(lifecycle)) {
			to, ok := lifecycle[ev][from]
			switch {
			case !ok:
				moves = append(moves, move{from, ev, service.StateCompleted})
			case to == outcome:
				for _, state := range []string{"", StateQueued, StateHanded, service.StateScheduled, service.StateRevoked, service.StateDrained} {
					moves = append(moves, move{from, ev, state})
				}
				fallthrough
			default:
				listed++
			}
		}
	}
	if listed != rows {
		t.Errorf("%d pairs listed of %d rows: a row names a state or event outside the test's lists", listed, rows)
	}
	for _, m := range moves {
		t.Run(m.from+"/"+eventNames[m.ev]+"/"+m.state, func(t *testing.T) {
			x := newTableCtx(t, t.TempDir(), "")
			defer x.r.Close()
			x.r.mu.Lock()
			rec := x.r.newRecordLocked(x.id, "S1", 0, m.from)
			rec.Shard, rec.Reason, rec.Epoch = x.shard, "before", 2
			x.r.mu.Unlock()
			want := rec.Record
			lsn, series := x.jnl.Stats().NextLSN, fedSeries(t, x.r)

			x.r.mu.Lock()
			moved := x.r.moveLocked(rec, m.ev, m.state, x.other, "after")
			x.r.mu.Unlock()

			if moved {
				t.Error("moveLocked moved the entry")
			}
			if got, _ := x.r.Job(x.id); got != want {
				t.Errorf("entry %+v, want %+v", got, want)
			}
			if n := x.jnl.Stats().NextLSN - lsn; n != 0 {
				t.Errorf("journal gained %d records", n)
			}
			if got := fedSeries(t, x.r); !maps.Equal(got, series) {
				t.Errorf("grid_fed_* series moved:\n got  %v\n want %v", got, series)
			}
		})
	}
}

// journalRecords reads every record in dir's segments, in LSN order.
func journalRecords(t *testing.T, dir string) []journal.Record {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	var out []journal.Record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(b, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var env struct {
				Rec journal.Record `json:"rec"`
			}
			if err := json.Unmarshal(line, &env); err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			out = append(out, env.Rec)
		}
	}
	return out
}

// isRow reports whether some row of the router's lifecycle leads from one
// state to the other.
func isRow(from, to string) bool {
	for _, row := range lifecycle {
		if next, ok := row[from]; ok && (next == to || next == outcome && service.Terminal(to) && !service.Tombstone(to)) {
			return true
		}
	}
	return false
}

// Router lifecycle fuzz ops. An op byte reads: bits 0-2 the input, bit 3 the
// key (a or b), bit 4 the shard (the key's home on the ring, or the other),
// bits 5-7 the variant: the handoff answer, the notice's state or the revoke
// answer.
const (
	fzSubmit, fzDispatch, fzNotice, fzJoin, fzBeginRevoke, fzRevokeAnswer, fzMiss = 0, 1, 2, 3, 4, 5, 6
	fzKeyB, fzAway                                                                = 1 << 3, 1 << 4
)

// fzVariant sets an op's variant.
func fzVariant(v byte) byte { return v << 5 }

// The variants, by input.
var (
	fzAnswers = [8]struct {
		res *HandoffResult
		err error
	}{
		{res: &HandoffResult{Accepted: true, State: service.StateQueued}},
		{res: &HandoffResult{Accepted: true, Duplicate: true, State: service.StateCompleted, Code: service.CodeDuplicate, Reason: "done earlier"}},
		{res: &HandoffResult{Code: service.CodeInfeasible, Reason: "deadline too tight"}},
		{res: &HandoffResult{Duplicate: true, State: service.StateRevoked, Code: service.CodeDuplicate}},
		{res: &HandoffResult{Duplicate: true, State: service.StateDrained, Code: service.CodeDuplicate}},
		{res: &HandoffResult{Code: service.CodeOverloaded}},
		{err: errUnreachable},
		{res: &HandoffResult{Accepted: true, Duplicate: true, State: service.StateRejected, Code: service.CodeDuplicate, Reason: "refused earlier"}},
	}
	fzNoticeStates = [4]string{service.StateCompleted, service.StateRejected, service.StateDrained, service.StateRevoked}
	fzRevokes      = [4]RevokeResult{
		{Outcome: RevokeOutcomeRevoked, State: service.StateRevoked},
		{Outcome: RevokeOutcomeInFlight, State: service.StateScheduled},
		{Outcome: RevokeOutcomeTerminal, State: service.StateCompleted, Reason: "ok"},
		{Outcome: RevokeOutcomeTerminal, State: service.StateRejected, Reason: "no admissible level"},
	}
)

// FuzzRouterLifecycle drives one journaled two-shard router, on the
// transition table's script shards, through random sequences of
// submissions, dispatches under scripted answers, notices from either shard
// in any state, joins, revocations begun and answered, and failed pings,
// for two keys. After every op it checks, from the journal (one record per
// move) and the live ledger, that:
//
//   - every state change is a row of the router's lifecycle table;
//   - an entry's epoch rises by one on each move to queued and never else;
//   - a terminal entry never moves again.
//
// At the end a router restored from the journal must hold the live ledger.
// The seeds are the transition table's rows.
func FuzzRouterLifecycle(f *testing.F) {
	handed := []byte{fzSubmit, fzDispatch}
	revoking := []byte{fzSubmit, fzDispatch, fzBeginRevoke}
	completed := []byte{fzSubmit, fzDispatch, fzNotice}
	for _, seed := range [][]byte{
		{fzSubmit},
		{fzSubmit, fzSubmit},
		{fzSubmit, fzDispatch | fzVariant(1)},
		{fzSubmit, fzDispatch | fzVariant(2)},
		{fzSubmit, fzDispatch | fzVariant(3)},
		{fzSubmit, fzDispatch | fzVariant(5)},
		{fzSubmit, fzDispatch | fzVariant(6)},
		append(handed, fzMiss, fzMiss),
		append(handed, fzNotice),
		append(handed, fzNotice|fzAway),
		append(handed, fzNotice|fzVariant(3)),
		append(handed, fzNotice|fzVariant(2)),
		append(handed, fzNotice|fzVariant(2)|fzAway),
		append(handed, fzJoin),
		append(handed, fzJoin|fzAway),
		append(revoking, fzRevokeAnswer),
		append(revoking, fzRevokeAnswer|fzVariant(1)),
		append(revoking, fzRevokeAnswer|fzVariant(3)),
		append(revoking, fzNotice),
		append(revoking, fzNotice|fzVariant(2)),
		append(revoking, fzBeginRevoke),
		{fzSubmit, fzJoin | fzAway},
		{fzJoin | fzAway},
		{fzSubmit, fzNotice | fzAway},
		append(completed, fzNotice|fzVariant(1)),
		append(completed, fzJoin),
		{fzSubmit, fzSubmit | fzKeyB, fzDispatch, fzDispatch | fzKeyB, fzMiss, fzMiss, fzMiss | fzAway, fzMiss | fzAway,
			fzRevokeAnswer, fzDispatch, fzRevokeAnswer | fzKeyB | fzVariant(2), fzNotice | fzVariant(2)},
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		dir := t.TempDir()
		x := newTableCtx(t, dir, "")
		defer x.r.Close()
		keys := [2]string{"a", "b"}
		shards := map[string][2]string{} // each key's home shard, then the other
		for _, k := range keys {
			home := x.r.ring.Walk(k)[0]
			other := x.fleet[0].name
			if other == home {
				other = x.fleet[1].name
			}
			shards[k] = [2]string{home, other}
		}
		type life struct {
			state string // "" before the journal creates the entry
			epoch int
		}
		lives := map[string]*life{"a": {}, "b": {}}
		views := map[string]service.Record{}
		read := 0

		for i, op := range ops {
			key := keys[op>>3&1]
			shard, variant := shards[key][op>>4&1], op>>5
			switch (op & 7) % 7 {
			case fzSubmit:
				x.r.Submit(testJob(key, 60), "S1", 0)
			case fzDispatch:
				a := fzAnswers[variant]
				x.answer(a.res, a.err)
				x.r.dispatch(key, 0)
			case fzNotice:
				x.r.HandleTerminal(&TerminalNotice{Shard: shard, Job: key, State: fzNoticeStates[variant&3], Reason: "noticed"})
			case fzJoin:
				x.r.HandleJoin(&JoinRequest{Shard: shard})
			case fzBeginRevoke:
				x.r.beginRevoke(key, "fuzz: in doubt")
			case fzRevokeAnswer:
				// A revoke is answered only for an entry the router holds.
				if _, ok := x.r.Job(key); ok {
					res := fzRevokes[variant&3]
					x.r.resolveRevoke(key, shard, &res)
				}
			case fzMiss:
				x.r.shardFailed(shard)
			}

			recs := journalRecords(t, dir)
			for _, rec := range recs[read:] {
				l := lives[rec.Job]
				switch {
				case l.state == "":
					if rec.State != StateQueued || rec.Epoch != 0 {
						t.Fatalf("op %d: %s created as %+v", i, rec.Job, rec)
					}
				case !isRow(l.state, rec.State):
					t.Fatalf("op %d: %s moved %s → %s, which no lifecycle row lists", i, rec.Job, l.state, rec.State)
				case rec.State == StateQueued && rec.Epoch != l.epoch+1,
					rec.State != StateQueued && rec.Epoch != l.epoch:
					t.Fatalf("op %d: %s moved %s@%d → %s@%d", i, rec.Job, l.state, l.epoch, rec.State, rec.Epoch)
				}
				l.state, l.epoch = rec.State, rec.Epoch
			}
			read = len(recs)
			for _, k := range keys {
				v, ok := x.r.Job(k)
				last, seen := views[k]
				switch {
				case ok != (lives[k].state != ""):
					t.Fatalf("op %d: %s in the ledger = %v, journal state %q", i, k, ok, lives[k].state)
				case !ok:
					continue
				case v.State != lives[k].state || v.Epoch != lives[k].epoch:
					t.Fatalf("op %d: %s live %+v, journal %+v", i, k, v, *lives[k])
				case seen && service.Terminal(last.State) && v != last:
					t.Fatalf("op %d: terminal %s moved from %+v to %+v", i, k, last, v)
				case seen && v.Epoch < last.Epoch:
					t.Fatalf("op %d: %s epoch fell from %d to %d", i, k, last.Epoch, v.Epoch)
				}
				views[k] = v
			}
		}

		x.r.Close()
		if err := x.jnl.Close(); err != nil {
			t.Fatal(err)
		}
		recovered, err := journal.Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		r2 := newTableRouter(t, x.fleet, nil)
		defer r2.Close()
		if _, err := r2.Restore(recovered); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if got, ok := r2.Job(k); ok != (views[k].ID != "") || got != views[k] {
				t.Errorf("restored %s = (%v) %+v, live %+v", k, ok, got, views[k])
			}
		}
	})
}
