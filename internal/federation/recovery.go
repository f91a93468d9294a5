package federation

import (
	"context"
	"sort"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
)

// banAndRequeueLocked voids the current binding by ev (already proven safe:
// the shard holds a tombstone, drained the job or confirmed the revoke),
// bans the shard for the job and requeues it. It reports whether lifecycle
// let ev move the entry. Caller holds r.mu.
func (r *Router) banAndRequeueLocked(rec *jobRecord, ev event, shard, why string) bool {
	if !r.moveLocked(rec, ev, "", "", why) {
		return false
	}
	if rec.banned == nil {
		rec.banned = make(map[string]bool)
	}
	rec.banned[shard] = true
	r.logf("federation: reallocating %s (%s)", rec.ID, why)
	r.pushLocked(rec)
	return true
}

// beginRevoke moves a bound job into the revoking state and queues its
// revocation for the dispatchers.
func (r *Router) beginRevoke(id, why string) {
	defer r.led.Unlock(r.led.Lock())
	if rec, ok := r.records[id]; ok && r.moveLocked(rec, evRevoke, "", rec.Shard, why) {
		r.pushLocked(rec)
	}
}

// resolveRevoke applies a confirmed revocation answer and reports whether
// lifecycle let it move the entry. It refuses when the entry left revoking
// meanwhile, or when the outcome is one this router does not know; dispatch
// then sends the revocation again unless the entry moved. Its moves mirror
// the shard's durable answer and ride the next sync: a crash that loses one
// restores the job revoking, and the resent revoke is answered the same.
func (r *Router) resolveRevoke(id, shard string, res *RevokeResult) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.records[id] // entries are never deleted
	var moved bool
	switch res.Outcome {
	case RevokeOutcomeRevoked:
		moved = r.banAndRequeueLocked(rec, evRevoked, shard, "revoked from "+shard)
	case RevokeOutcomeTerminal:
		moved = r.moveLocked(rec, evTerminal, res.State, shard, res.Reason)
	case RevokeOutcomeInFlight:
		// The shard's engine owns it; rebind and wait for the terminal
		// notice. A later death sweeps it back into revocation.
		moved = r.moveLocked(rec, evInFlight, "", shard, "")
	}
	return moved
}

// heartbeatLoop pings one shard forever. Its answers feed the shard's
// breaker as every send's do, so a success closes it again after a death.
func (r *Router) heartbeatLoop(name string) {
	defer r.wg.Done()
	client := r.clients[name]
	t := time.NewTicker(r.cfg.heartbeat())
	defer t.Stop()
	for {
		select {
		case <-r.stopc:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.heartbeat())
		err := client.Ping(ctx)
		cancel()
		if err != nil {
			r.shardFailed(name)
			continue
		}
		r.brk.Get(name).Success(r.now())
	}
}

// shardFailed records a failed ping, handoff or revoke transport at the
// shard's breaker. The failure that trips a closed breaker declares the
// shard dead: the caller counts the death once per outage and sweeps every
// job handed to the shard into confirmed revocation.
func (r *Router) shardFailed(name string) {
	if !r.brk.Get(name).Failure(r.now()) {
		return
	}
	r.th.deaths.Inc()
	var sweep []string
	r.mu.Lock()
	for id, rec := range r.records {
		if rec.State == StateHanded && rec.Shard == name {
			sweep = append(sweep, id)
		}
	}
	r.mu.Unlock()
	sort.Strings(sweep)
	r.logf("federation: shard %s declared dead by its breaker; revoking %d bound jobs", name, len(sweep))
	for _, id := range sweep {
		r.beginRevoke(id, "shard "+name+" declared dead")
	}
}

// HandleJoin is the router side of a shard's rejoin handshake: it queues
// for resending, in ID order, every job it holds handed to the shard. The
// shard answers each resent handoff as a duplicate, which settles the
// binding as a live one's is settled: an outcome it reached while the router
// did not hear (evAnswer), a tombstone it revoked or drained (evTombstone),
// a fresh accept of a job it never durably saw, or the release of a job it
// holds from recovery (ApplyHandoff). A job it holds that the router is
// revoking is settled by that job's revocation. A join binds nothing,
// so one from a shard outside the fleet changes nothing.
func (r *Router) HandleJoin(req *JoinRequest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var resend []string
	for id, rec := range r.records {
		if rec.State == StateHanded && rec.Shard == req.Shard {
			resend = append(resend, id)
		}
	}
	sort.Strings(resend)
	for _, id := range resend {
		r.pushLocked(r.records[id])
	}
	r.logf("federation: join from %s: %d bindings resent", req.Shard, len(resend))
}

// HandleTerminal applies one terminal notice from a shard. It is idempotent:
// lifecycle refuses a notice for a terminal entry, and a revoked one, which
// names no outcome (the job lives on; its revocation owns it). Its record
// mirrors the shard's durable outcome, so it is not synced here: it rides
// the router's next sync (a Ledger.Unlock that appended, a read that shows an
// outcome, compaction or Close). A crash that loses it restores the job
// handed, and the handoff resent to the shard is answered with the same
// outcome.
func (r *Router) HandleTerminal(n *TerminalNotice) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.records[n.Job]
	if !ok {
		return // not ours (e.g. a key another router placed)
	}
	switch {
	case n.State == service.StateDrained:
		// The shard shut down without running it: ownership released, so
		// reallocate — unless the binding already moved.
		if rec.Shard == n.Shard {
			r.banAndRequeueLocked(rec, evDrainedAt, n.Shard, "drained at "+n.Shard)
		}
	case rec.Shard != "" && rec.Shard != n.Shard:
		// A shard we revoked away from still finished it first — that can
		// only be an inflight answer we rebound after, so the notice is
		// authoritative for that shard's execution.
		r.logf("federation: terminal notice for %s from %s but bound to %s", n.Job, n.Shard, rec.Shard)
	default:
		r.moveLocked(rec, evTerminal, n.State, n.Shard, n.Reason)
	}
}

// Restore rebuilds the router ledger from a journal recovery; call it
// before Start. It sends nothing itself: every live job goes to the
// dispatchers Start launches, which bind a queued one, send a handed one
// again to its shard, whose answer settles the binding as a live one's
// does, and revoke a revoking one with the reason its revocation journaled.
// A job bound to a shard no longer in the fleet is requeued.
func (r *Router) Restore(rec *journal.Recovery) (int, error) {
	if rec == nil {
		return 0, nil
	}
	r.mu.Lock()
	n, handed, revoking := 0, 0, 0
	for _, js := range rec.Jobs {
		if _, dup := r.records[js.Job]; dup {
			continue
		}
		state, shard := js.State, js.Shard
		if _, known := r.clients[shard]; !known && !service.Terminal(state) {
			state = StateQueued
		}
		if state == StateQueued {
			shard = ""
		}
		jr := r.newRecordLocked(js.Job, js.Strategy, js.Priority, state)
		jr.Shard, jr.Reason, jr.Epoch = shard, js.Reason, js.Epoch
		n++
		if !service.Terminal(state) {
			jr.wire = js.Wire
			r.pushLocked(jr)
		}
		switch state {
		case StateHanded:
			handed++
		case StateRevoking:
			revoking++
		}
	}
	r.mu.Unlock()
	r.logf("federation: restored %d jobs (%d handed to resend, %d revoking)", n, handed, revoking)
	return n, nil
}
