package chaostest

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// FaultPlan is a seeded network-fault mix for one router→shard link. The
// four faults map onto the partition behaviours that break naive handoff
// protocols:
//
//   - Drop: the request is lost before the shard sees it (clean failure).
//   - AckLoss: the shard PROCESSES the request but the response is lost —
//     the "in doubt" case idempotency keys and confirmed revocation exist
//     for.
//   - Dup: the frame is delivered twice (a retrying proxy); the shard's
//     duplicate guard must collapse it.
//   - Delay: the request is held up to DelayMax first, reordering it
//     against younger traffic.
type FaultPlan struct {
	Seed     uint64
	Drop     float64
	AckLoss  float64
	Dup      float64
	Delay    float64
	DelayMax time.Duration
}

// FaultTransport injects FaultPlan faults under an http.Client, plus a
// switchable full partition (Sever). Faults draw from one seeded stream,
// so a chaos cycle's fault mix is reproducible from its seed.
type FaultTransport struct {
	next    http.RoundTripper
	plan    FaultPlan
	severed atomic.Bool

	mu sync.Mutex
	r  *rng.Source

	// Injected counts every fault fired, by kind.
	drops, ackLosses, dups, delays atomic.Uint64
}

// NewFaultTransport wraps next (nil = http.DefaultTransport).
func NewFaultTransport(plan FaultPlan, next http.RoundTripper) *FaultTransport {
	if next == nil {
		next = http.DefaultTransport
	}
	h := fnv.New64a()
	h.Write([]byte("faultrt"))
	return &FaultTransport{next: next, plan: plan, r: rng.New(plan.Seed).Split(h.Sum64())}
}

// Sever switches the full partition on or off.
func (t *FaultTransport) Sever(on bool) { t.severed.Store(on) }

// Severed reports the partition switch.
func (t *FaultTransport) Severed() bool { return t.severed.Load() }

// Counts returns (drops, ackLosses, dups, delays) injected so far.
func (t *FaultTransport) Counts() (uint64, uint64, uint64, uint64) {
	return t.drops.Load(), t.ackLosses.Load(), t.dups.Load(), t.delays.Load()
}

func (t *FaultTransport) draw() (drop, ackLoss, dup bool, delay time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	drop = t.r.Float64() < t.plan.Drop
	ackLoss = t.r.Float64() < t.plan.AckLoss
	dup = t.r.Float64() < t.plan.Dup
	if t.r.Float64() < t.plan.Delay && t.plan.DelayMax > 0 {
		delay = time.Duration(t.r.Float64() * float64(t.plan.DelayMax))
	}
	return
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.severed.Load() {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("faultrt: link severed")
	}
	drop, ackLoss, dup, delay := t.draw()
	if delay > 0 {
		t.delays.Add(1)
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		}
	}
	if drop {
		t.drops.Add(1)
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("faultrt: request dropped")
	}

	// Buffer the body so it can be replayed for duplication.
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	send := func() (*http.Response, error) {
		clone := req.Clone(req.Context())
		if body != nil {
			clone.Body = io.NopCloser(bytes.NewReader(body))
			clone.ContentLength = int64(len(body))
		}
		return t.next.RoundTrip(clone)
	}

	if dup {
		// First delivery: processed by the shard, answer discarded.
		t.dups.Add(1)
		if resp, err := send(); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	resp, err := send()
	if err != nil {
		return nil, err
	}
	if ackLoss {
		// The shard processed this delivery; the caller never learns.
		t.ackLosses.Add(1)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("faultrt: response lost after processing")
	}
	return resp, nil
}
