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
	r.pushLocked(rec.ID)
	return true
}

// beginRevoke moves a bound job into the revoking state and starts its
// revocation loop.
func (r *Router) beginRevoke(id, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec, ok := r.records[id]; ok && r.moveLocked(rec, evRevoke, "", rec.Shard, why) {
		r.revokeLocked(rec, why)
	}
}

// revokeLocked starts rec's revocation loop unless one runs: at most one
// per job. Caller holds r.mu.
func (r *Router) revokeLocked(rec *jobRecord, why string) {
	if rec.revokeActive {
		return
	}
	rec.revokeActive = true
	r.wg.Add(1)
	go r.revokeLoop(rec.ID, why)
}

// revokeLoop retries the revocation RPC until the shard gives a durable
// answer. A SIGKILL'd shard answers after restart from its journal; a
// shard that never returns leaves the job in-doubt forever — by design,
// since reallocating without confirmation is the double-execution bug
// this protocol exists to prevent.
func (r *Router) revokeLoop(id, why string) {
	defer r.wg.Done()
	r.retry.retry(func(attempt int) bool {
		r.mu.Lock()
		rec := r.records[id] // entries are never deleted
		if rec.State != StateRevoking {
			rec.revokeActive = false
			r.mu.Unlock()
			return true
		}
		shard, epoch := rec.Shard, rec.epoch
		r.mu.Unlock()

		client := r.clients[shard]
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.handoffTimeout())
		res, err := client.Revoke(ctx, &RevokeRequest{Key: id, Reason: why, Epoch: epoch})
		cancel()
		if err != nil {
			r.logf("federation: revoke %s@%s attempt %d: %v", id, shard, attempt, err)
			return false
		}
		return r.resolveRevoke(id, shard, res)
	})
}

// resolveRevoke applies a confirmed revocation answer. It returns false,
// and the loop tries again, when lifecycle refuses the answer's move: the
// entry left revoking meanwhile (the next attempt sees that and ends the
// loop), or the outcome is one this router does not know.
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
	rec.revokeActive = !moved
	return moved
}

// heartbeatLoop pings one shard forever: its answers are the shard's
// breaker's only probe, so a success is what closes it again after a death.
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

// shardFailed records a failed ping or handoff transport at the shard's
// breaker. The failure that trips a closed breaker declares the shard dead:
// the caller counts the death once per outage and sweeps every job handed to
// the shard into confirmed revocation.
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
// revoking is settled by that job's revocation loop. A join binds nothing,
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
		r.pushLocked(id)
	}
	r.logf("federation: join from %s: %d bindings resent", req.Shard, len(resend))
}

// HandleTerminal applies one terminal notice from a shard. It is idempotent:
// lifecycle refuses a notice for a terminal entry, and a revoked one, which
// names no outcome (the job lives on; the revocation loop owns it). The
// journal append inside makes the notice durable before the HTTP 200 that
// stops the shard's redelivery.
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
// before Start. It sends nothing itself: queued and handed jobs go to the
// dispatchers Start launches, which bind the first and send the second
// again to its shard, whose answer settles the binding as a live one's
// does; revoking jobs resume their revocation loop. A job bound to a shard
// no longer in the fleet is requeued.
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
		jr.Shard, jr.Reason, jr.wire, jr.epoch, jr.submitted = shard, js.Reason, js.Wire, js.Epoch, time.Time{}
		n++
		switch state {
		case StateHanded:
			handed++
			r.pushLocked(js.Job)
		case StateQueued:
			r.pushLocked(js.Job)
		case StateRevoking:
			r.revokeLocked(jr, "recovered in-doubt revocation")
			revoking++
		}
	}
	r.mu.Unlock()
	r.logf("federation: restored %d jobs (%d handed to resend, %d revoking)", n, handed, revoking)
	return n, nil
}
