package federation

import (
	"cmp"
	"context"
	"time"

	"repro/internal/breaker"
	"repro/internal/service"
)

// owed is one send a ledger entry is owed: the entry's state and attempts
// when it was queued for dispatch, and the router's newest record then,
// which dispatch syncs before it makes the send.
type owed struct {
	id       string
	state    string
	attempts int
	lsn      uint64
}

// pushLocked queues rec for dispatch now. Caller holds r.mu.
func (r *Router) pushLocked(rec *jobRecord) {
	r.owe(owed{rec.ID, rec.State, rec.attempts, r.led.LSN()})
}

// owe queues o for dispatch unless the router is closed. Caller holds r.mu.
func (r *Router) owe(o owed) {
	if r.closed {
		return
	}
	r.pending = append(r.pending, o)
	r.th.pending.Set(float64(len(r.pending)))
	r.cond.Signal()
}

// requeueLater queues rec for dispatch again after d: the path of a send
// that settled nothing, of one its shard's breaker held back and of a job
// with no eligible shard. It starts no goroutine until d has passed.
// Caller holds r.mu.
func (r *Router) requeueLater(rec *jobRecord, d time.Duration) {
	o := owed{rec.ID, rec.State, rec.attempts, r.led.LSN()}
	time.AfterFunc(d, func() {
		r.mu.Lock()
		r.owe(o)
		r.mu.Unlock()
	})
}

// dispatchLoop is one worker: pop an owed send and make it. A send whose
// entry moved or was sent since it was owed is dropped: whatever moved or
// sent the entry owns its next send.
func (r *Router) dispatchLoop() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.pending) == 0 && !r.closed {
			r.cond.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		o := r.pending[0]
		if len(r.pending) == 1 {
			r.pending = r.pending[:0] // keep the backing array for the next owe
		} else {
			r.pending = r.pending[1:]
		}
		r.th.pending.Set(float64(len(r.pending)))
		rec := r.records[o.id] // entries are never deleted
		current := rec.State == o.state && rec.attempts == o.attempts
		r.mu.Unlock()
		if current {
			r.dispatch(o.id, o.lsn)
		}
	}
}

// eligibleLocked returns the first shard on the preference list that is
// not banned for this job and whose breaker is closed. A half-open shard
// gets no binding: a job is bound only to a shard whose breaker a ping or
// an answered send has closed since it was declared dead.
func (r *Router) eligibleLocked(rec *jobRecord) (string, bool) {
	now := r.now()
	for _, s := range r.ring.Walk(rec.ID) {
		if !rec.banned[s] && r.brk.Get(s).State(now) == breaker.Closed {
			return s, true
		}
	}
	return "", false
}

// dispatch is the router's one sender: it makes at most one send for the
// entry, chosen by its state. A queued entry is bound to a shard and handed
// off; a handed one — restored from the journal, resent at its shard's
// join, or retried — is handed off again to the shard it is bound to, which
// answers a frame it already holds idempotently; a revoking one is revoked.
// The shard's breaker paces every send: while it refuses, the entry uses no
// attempt and is requeued for when the breaker may admit it. A send that
// settles nothing, or that stays home because the sync before it failed, is
// requeued after the retry backoff, except a handoff that has used
// RetryBudget attempts, which puts the binding in doubt. A move made while
// the send is out belongs to whatever made it. owing is the router's newest
// record when the send was owed, so the move that owed it is at or below it.
func (r *Router) dispatch(id string, owing uint64) {
	since := r.led.Lock()
	rec, ok := r.records[id]
	if !ok || service.Terminal(rec.State) || rec.wire == nil && rec.State != StateRevoking {
		// Settled, or adopted by an older router's join (no wire form): nothing to send.
		r.mu.Unlock()
		return
	}
	shard := rec.Shard
	if rec.State == StateQueued {
		shard, ok = r.eligibleLocked(rec)
		if !ok && len(rec.banned) >= len(r.ring.Shards()) {
			// Every shard holds a tombstone for this key. Each ban was taken
			// only after a confirmed revocation (or a shard's own durable
			// tombstone answer), so the job is provably running nowhere — the
			// one situation where re-walking the ring is safe. The handoff
			// carries an epoch above every tombstone's, which lets the target
			// resurrect its tombstone instead of refusing the key forever.
			r.logf("federation: %s banned on every shard; clearing bans at epoch %d", id, rec.Epoch)
			rec.banned = nil
			shard, ok = r.eligibleLocked(rec)
		}
	}
	if !ok || !r.brk.Get(shard).Allow(r.now()) {
		// A queued entry no closed breaker admits waits for the pings to
		// close one. A send its own shard's breaker holds waits out the open
		// window, or a retry base while another send probes the half-open
		// shard, and never longer than a heartbeat.
		d := r.cfg.heartbeat()
		if ok {
			window := time.Duration(r.brk.Get(shard).RetryAfter(r.now())) * time.Millisecond
			d = min(d, max(window, r.retry.base))
		}
		r.requeueLater(rec, d)
		r.mu.Unlock()
		return
	}
	if rec.State == StateQueued {
		// A job Submit could not bind, or one reallocated: journal the
		// binding BEFORE the first byte leaves, so that if the router is
		// SIGKILL'd mid-handoff, its next incarnation restores the job as
		// handed to shard and sends the same frame there again.
		r.moveLocked(rec, evBind, "", shard, "")
	}
	rec.attempts++
	state, attempts := rec.State, rec.attempts
	var h *Handoff
	var req *RevokeRequest
	if state == StateHanded {
		h = &Handoff{Key: id, Job: *rec.wire, Strategy: rec.Strategy, Priority: rec.Priority, Epoch: rec.Epoch}
	} else {
		req = &RevokeRequest{Key: id, Reason: rec.Reason, Epoch: rec.Epoch}
	}
	// A binding made here, and the move that owed the send, are on disk
	// before the first byte leaves: Submit's binding, whose own sync may
	// still be under way, shares that fsync. Syncing only through owing, not
	// the newest record, spares the send a wait on later moves' fsyncs. When
	// the sync fails the send stays home and settles nothing: the move it
	// would act on may be on no disk, and a router restored without it could
	// bind the job to a second shard.
	serr := cmp.Or(r.led.Unlock(since), r.cfg.Journal.Sync(owing))

	client := r.clients[shard]
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.handoffTimeout())
	var settled bool
	var err error
	switch {
	case serr != nil:
		r.logf("federation: %s %s@%s not sent: %v", state, id, shard, serr)
	case h != nil:
		var res *HandoffResult
		res, err = client.Handoff(ctx, h)
		r.th.handoffs.Inc()
		if err == nil {
			r.brk.Get(shard).Success(r.now())
			settled = r.resolveHandoff(rec, shard, res)
		} else {
			r.th.handoffFailures.Inc()
		}
	default:
		var res *RevokeResult
		res, err = client.Revoke(ctx, req)
		if err == nil {
			r.brk.Get(shard).Success(r.now())
			settled = r.resolveRevoke(id, shard, res)
		}
	}
	cancel()
	if err != nil {
		r.logf("federation: %s %s@%s attempt %d: %v", state, id, shard, attempts, err)
		r.shardFailed(shard)
	}

	defer r.led.Unlock(r.led.Lock())
	switch {
	case settled, rec.State != state, rec.attempts != attempts:
		// Settled, or moved or sent again meanwhile by what owns it now.
	case state == StateHanded && attempts >= r.cfg.retryBudget():
		// Budget exhausted: the job is in doubt at shard (an attempt may
		// have been processed with its ack lost). Walk the last
		// recovery-ladder rung: confirmed revocation, then reallocation to
		// a survivor.
		if r.moveLocked(rec, evRevoke, "", shard, "handoff retry budget exhausted") {
			r.pushLocked(rec)
		}
	default:
		if state == StateHanded {
			r.th.retries.Inc()
		}
		r.requeueLater(rec, r.retry.delay(attempts))
	}
}

// resolveHandoff applies a durable shard answer, which may carry the job's
// outcome (see HandoffResult.State). Returns false when the answer is
// retryable. Its moves mirror what the shard holds on disk, so they ride
// the next sync: a crash that loses one restores the job handed, and the
// resent handoff brings the same answer back.
func (r *Router) resolveHandoff(rec *jobRecord, shard string, res *HandoffResult) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case rec.Shard != shard:
		// The job was reallocated: the answer is about a voided binding.
	case res.Accepted:
		// An outcome is mirrored: an idle shard's fresh accept carries one,
		// as does a duplicate of an already-finished accept. A live accept
		// names none and moves nothing; the shard's notice will.
		r.moveLocked(rec, evAnswer, res.State, shard, res.Reason)
	case res.Duplicate && service.Tombstone(res.State):
		// Our own tombstone (or a drained shutdown remnant): this key was
		// voided at this shard earlier, so the binding is void. Ban the
		// shard and reallocate.
		r.banAndRequeueLocked(rec, evTombstone, shard, "tombstone at "+shard)
	case res.Code == service.CodeInvalid || res.Code == service.CodeInfeasible:
		r.moveLocked(rec, evAnswer, service.StateRejected, shard, res.Reason)
	default:
		// Overloaded, draining, internal: retryable.
		return false
	}
	return true
}
