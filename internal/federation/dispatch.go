package federation

import (
	"context"
	"time"

	"repro/internal/breaker"
	"repro/internal/service"
)

// pushLocked queues a job for dispatch. Caller holds r.mu.
func (r *Router) pushLocked(id string) {
	r.pending = append(r.pending, id)
	r.th.pending.Set(float64(len(r.pending)))
	r.cond.Signal()
}

// push is pushLocked for timers and RPC outcomes.
func (r *Router) push(id string) {
	r.mu.Lock()
	if !r.closed {
		r.pushLocked(id)
	}
	r.mu.Unlock()
}

// requeueLater re-queues id after d — the "no eligible shard right now"
// path, paced by the heartbeat interval.
func (r *Router) requeueLater(id string, d time.Duration) {
	time.AfterFunc(d, func() { r.push(id) })
}

// dispatchLoop is one worker: pop a pending job, dispatch it to the first
// eligible shard on its preference list, with a bounded retry budget.
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
		id := r.pending[0]
		r.pending = r.pending[1:]
		r.th.pending.Set(float64(len(r.pending)))
		r.mu.Unlock()
		r.dispatch(id)
	}
}

// eligibleLocked returns the first shard on the preference list that is
// not banned for this job and whose breaker is closed. A half-open shard
// gets no handoff as a probe: its next good ping closes the breaker, so no
// job is bound to a shard that has not answered since it was declared dead.
func (r *Router) eligibleLocked(rec *jobRecord) (string, bool) {
	now := r.now()
	for _, s := range r.ring.Walk(rec.ID) {
		if !rec.banned[s] && r.brk.Get(s).State(now) == breaker.Closed {
			return s, true
		}
	}
	return "", false
}

// dispatch sends the binding an entry holds and runs the handoff attempts:
// a queued job is bound to a shard first; a handed one — restored from the
// journal, or resent at its shard's join — is sent again to the shard it is
// bound to, which answers a frame it already holds idempotently.
func (r *Router) dispatch(id string) {
	r.mu.Lock()
	rec, ok := r.records[id]
	if !ok || rec.wire == nil || rec.State != StateQueued && rec.State != StateHanded {
		// Settled, being revoked, or adopted by an older router's join (no wire form): nothing to send.
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
			r.logf("federation: %s banned on every shard; clearing bans at epoch %d", id, rec.epoch)
			rec.banned = nil
			shard, ok = r.eligibleLocked(rec)
		}
		if !ok {
			r.mu.Unlock()
			r.requeueLater(id, r.cfg.heartbeat())
			return
		}
		// Journal the binding BEFORE the first byte leaves: if the router
		// is SIGKILL'd mid-handoff, its next incarnation restores the job
		// as handed to shard and sends the same frame there again.
		r.moveLocked(rec, evBind, "", shard, "")
	}
	wire := *rec.wire
	strategyName, priority, epoch := rec.Strategy, rec.Priority, rec.epoch
	r.mu.Unlock()

	client := r.clients[shard]
	budget := r.cfg.retryBudget()
	for attempt := 1; attempt <= budget; attempt++ {
		if attempt > 1 {
			if !r.retry.wait(attempt-1) || !r.boundTo(rec, shard) {
				return
			}
			r.th.retries.Inc()
		}
		h := &Handoff{Key: id, Job: wire, Strategy: strategyName, Priority: priority, Epoch: epoch}
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.handoffTimeout())
		began := time.Now()
		res, err := client.Handoff(ctx, h)
		cancel()
		r.th.handoffs.Inc()
		if err != nil {
			r.th.handoffFailures.Inc()
			r.logf("federation: handoff %s→%s attempt %d: %v", id, shard, attempt, err)
			r.shardFailed(shard)
			continue
		}
		r.brk.Get(shard).Success(r.now())
		r.th.handoffLatency.Observe(time.Since(began).Seconds())
		if r.resolveHandoff(rec, shard, res) {
			return
		}
		// Retryable shard answer (overloaded / draining): consume budget
		// and try again.
	}
	// Budget exhausted: the job is in doubt at shard (an attempt may have
	// been processed with its ack lost). Walk the last recovery-ladder
	// rung: confirmed revocation, then reallocation to a survivor.
	r.beginRevoke(id, "handoff retry budget exhausted")
}

// boundTo reports whether rec is still handed to shard. A retry goes out
// only while it is: once a death sweep, an answer or a notice moved the
// job, its revocation loop or outcome owns it.
func (r *Router) boundTo(rec *jobRecord, shard string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return rec.State == StateHanded && rec.Shard == shard
}

// resolveHandoff applies a durable shard answer, which may carry the job's
// outcome (see HandoffResult.State). Returns false when the answer is
// retryable.
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
		// Overloaded, draining, internal: retry while an answer
		// can still settle the binding. Once a death sweep or a notice
		// moved the job, its revocation loop or outcome owns it.
		return lifecycle[evAnswer][rec.State] == ""
	}
	return true
}
