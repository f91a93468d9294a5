// Package federation splits the paper's job flow across N metascheduler
// shards behind a thin front tier: a consistent-hash router (cmd/gridfront)
// partitions jobs across gridd shards over a small versioned HTTP wire
// protocol — idempotency-keyed handoffs, confirmed revocations and
// terminal-state notifications — with one circuit breaker per shard, fed
// by heartbeats and handoff transports, as the failure detector, and a
// final recovery-ladder rung that reallocates a dead or exhausted shard's
// jobs to survivors. An
// idle shard decides a handed job before it answers, so the answer carries
// the outcome and no notice follows; a busy shard answers at once and
// notices the outcome when the job finishes.
// Handoffs are journaled on both sides (internal/journal), so a SIGKILL'd
// shard or router recovers in-flight handoffs exactly once through the
// existing duplicate guard. DESIGN.md §13 states the failure model and the
// exactly-once argument.
package federation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/jobio"
)

// Frame layout: magic "GFED" | 1-byte version | uint32 BE payload length |
// JSON payload | uint32 BE CRC32 (IEEE) of the payload. The CRC catches
// truncation and corruption before JSON ever runs; the version byte gates
// compatibility explicitly instead of by JSON-shape accident.
const (
	// Version is the wire protocol version this build speaks.
	Version = 1

	frameMagic    = "GFED"
	frameHeader   = 4 + 1 + 4 // magic + version + length
	frameTrailer  = 4         // crc
	maxFrameBytes = 16 << 20  // refuse absurd lengths before allocating
)

// The codec's typed errors, distinguishable by errors.Is.
var (
	ErrTruncated   = errors.New("federation: truncated frame")
	ErrBadMagic    = errors.New("federation: bad frame magic")
	ErrBadVersion  = errors.New("federation: unsupported protocol version")
	ErrBadCRC      = errors.New("federation: frame crc mismatch")
	ErrFrameTooBig = errors.New("federation: frame exceeds size limit")
)

// Handoff is one job handoff (or cross-shard reallocation) from the router
// to a shard. Key is the idempotency key: retries and duplicated frames all
// carry the same Key, and the shard's durable ledger collapses them into at
// most one accepted job.
type Handoff struct {
	// Key is the idempotency key — the job's globally unique name.
	Key string `json:"key"`
	// Job is the full wire form of the job.
	Job jobio.Job `json:"job"`
	// Strategy and Priority carry the service-level submission fields.
	Strategy string `json:"strategy,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Epoch is the router's reallocation round for this job: 0 for the
	// first binding, +1 after every confirmed revocation. A shard holding
	// a revoked tombstone for Key refuses handoffs whose Epoch is at or
	// below the tombstone's (stale replays of a revoked binding) but
	// resurrects the tombstone for a higher Epoch — the router only mints
	// one after confirming the job runs nowhere.
	Epoch int `json:"epoch,omitempty"`
}

// Validate checks the semantic invariants a decoded handoff must satisfy.
func (h *Handoff) Validate() error {
	if h.Key == "" {
		return fmt.Errorf("federation: handoff has empty idempotency key")
	}
	if h.Job.Name != h.Key {
		return fmt.Errorf("federation: handoff key %q does not match job name %q", h.Key, h.Job.Name)
	}
	return h.Job.Validate()
}

// HandoffResult is the shard's answer, returned as plain JSON in the HTTP
// response body.
type HandoffResult struct {
	// Accepted means the shard now durably owns the job (a fresh accept,
	// or a duplicate of an earlier accept — idempotent either way).
	Accepted bool `json:"accepted"`
	// Duplicate is set when the key was already in the shard's ledger;
	// State and Reason then report the existing record's. A duplicate in state
	// "revoked" is a tombstone: the router revoked this key here earlier,
	// so the job must NOT be considered accepted.
	Duplicate bool `json:"duplicate,omitempty"`
	// State is the job's state on the shard when it answered. A fresh
	// accept at an idle shard answers after the engine decided the job, so
	// State is its outcome (completed or rejected) and no terminal notice
	// follows; otherwise it is live, and the outcome comes as a notice.
	State string `json:"state,omitempty"`
	// Code and Reason mirror service.SubmitError on a definitive or
	// retryable rejection; the router's own backoff times a retry. A
	// duplicate carries the code duplicate and the record's Reason.
	Code   string `json:"code,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// RevokeRequest asks a shard to give a job back (or never accept it).
type RevokeRequest struct {
	Key    string `json:"key"`
	Reason string `json:"reason,omitempty"`
	// Epoch is the reallocation round being revoked; the shard stamps it
	// into the tombstone (see Handoff.Epoch).
	Epoch int `json:"epoch,omitempty"`
}

// Revoke outcomes.
const (
	// RevokeOutcomeRevoked — the shard will never execute the job: it was
	// still queued (now revoked), held from recovery (now revoked), never
	// seen (a tombstone was planted under the key), or already a tombstone,
	// revoked or drained (State says which; its epoch is now the request's).
	RevokeOutcomeRevoked = "revoked"
	// RevokeOutcomeInFlight — the shard's engine already owns the job; it
	// will reach a terminal state here and cannot be taken back.
	RevokeOutcomeInFlight = "inflight"
	// RevokeOutcomeTerminal — the job already finished here; State/Reason
	// carry the result.
	RevokeOutcomeTerminal = "terminal"
)

// RevokeResult is the shard's confirmed answer to a revocation. An empty
// Outcome confirms nothing: the shard's sync failed, and Reason says so.
type RevokeResult struct {
	Outcome string `json:"outcome"` // revoked | inflight | terminal, or ""
	State   string `json:"state,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// JoinRequest is the rejoin handshake a shard sends its router on startup:
// the shard's name and nothing else, so it does not grow with the shard's
// ledger. The router answers with a bare 200 and resends every binding it
// holds handed to the shard; the shard's answer to each settles it, and
// releases a job the shard holds from recovery (ApplyHandoff).
type JoinRequest struct {
	Shard string `json:"shard"`
}

// TerminalNotice tells the router a job reached a terminal state on a
// shard. Idempotent: the router ignores repeats and stale mismatches.
type TerminalNotice struct {
	Shard  string `json:"shard"`
	Job    string `json:"job"`
	State  string `json:"state"`
	Reason string `json:"reason,omitempty"`
}

// readFrame parses one frame at the head of b, returning the payload and
// the remaining bytes.
func readFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < frameHeader {
		return nil, nil, ErrTruncated
	}
	if string(b[:4]) != frameMagic {
		return nil, nil, ErrBadMagic
	}
	if v := b[4]; v != Version {
		return nil, nil, fmt.Errorf("%w: got %d, speak %d", ErrBadVersion, v, Version)
	}
	n := binary.BigEndian.Uint32(b[5:9])
	if n > maxFrameBytes {
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	total := frameHeader + int(n) + frameTrailer
	if len(b) < total {
		return nil, nil, ErrTruncated
	}
	payload = b[frameHeader : frameHeader+int(n)]
	want := binary.BigEndian.Uint32(b[frameHeader+int(n):])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, nil, fmt.Errorf("%w: frame says %08x, content is %08x", ErrBadCRC, want, got)
	}
	return payload, b[total:], nil
}
