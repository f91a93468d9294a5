package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// SubmitRequest is the POST /v1/jobs body: the jobio wire form of the job
// plus service-level fields. Deadline is a relative QoS budget in model
// ticks (the absolute deadline is arrival + deadline).
type SubmitRequest struct {
	jobio.Job
	// Strategy selects the family ("S1", "S2", "S3", "MS1"); empty = S1.
	Strategy string `json:"strategy,omitempty"`
	// Priority orders overload shedding; higher survives longer.
	Priority int `json:"priority,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error  string `json:"error"`
	Code   string `json:"code,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// Handler returns the service's HTTP API: the client API of ClientMux,
// whose GET /healthz carries the outcome of startup recovery too.
func (s *Server) Handler() http.Handler {
	return ClientMux(s, s.cfg.Journal, s.telem, s.Recovery)
}

// Tier is a scheduling tier as its clients see it. gridd's Server is one,
// and so is gridfront's federation router, which answers with the Record of
// its own ledger entry.
type Tier interface {
	Submit(wire jobio.Job, strategyName string, priority int) (*Record, error)
	Job(id string) (Record, bool)
	Jobs() []Record
	Draining() bool
}

// ClientMux returns the client API both tiers serve, for t, whose journal is
// j (nil when it keeps none) and whose registry is reg:
//
//	POST /v1/jobs      — submit a job (202, or 400/409/413/422/429/500/503)
//	GET  /v1/jobs      — list all job records
//	GET  /v1/jobs/{id} — one job record (404 when unknown)
//	GET  /metrics      — Prometheus text format, streamed from the registry
//	GET  /healthz      — liveness + journal detail (always 200)
//	GET  /readyz       — readiness (503 + Retry-After while draining)
//
// Backpressure responses (429 queue full, 503 draining) carry a
// Retry-After header so clients back off instead of hammering a daemon
// that is overloaded or restarting. A read answers 500 once j holds a
// failed sync: the sync the read made before it showed an outcome may have
// lost it. recovery, when non-nil, adds its outcome to GET /healthz.
func ClientMux(t Tier, j *journal.Journal, reg *telemetry.Registry, recovery func() *RecoveryStats) *http.ServeMux {
	// read answers v unless j holds a failed sync. A failed fsync is sticky,
	// so Sync(0) returns it, and a read's own failed sync is among them.
	read := func(w http.ResponseWriter, v any) {
		if err := j.Sync(0); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: "journal sync failed",
				Code: CodeInternal, Reason: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if !DecodeSubmit(w, r, &req) {
			return
		}
		rec, err := t.Submit(req.Job, req.Strategy, req.Priority)
		if err != nil {
			WriteSubmitError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, rec)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		read(w, t.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		rec, ok := t.Job(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job", Reason: id})
			return
		}
		read(w, rec)
	})
	// GET /metrics builds no intermediate document per scrape:
	// WritePrometheus walks the live atomics straight into a buffered
	// writer.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		body := healthzBody{Status: "ok"}
		if j != nil {
			st := j.Stats()
			body.Journal = &st
		}
		if recovery != nil {
			body.Recovery = recovery()
		}
		writeJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if t.Draining() {
			setRetryAfter(w, retryAfter)
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

// healthzBody is the GET /healthz response: liveness plus what no series
// on GET /metrics carries — when a journal is configured, its positions and
// ledger size, and on a service the outcome of startup recovery.
type healthzBody struct {
	Status   string         `json:"status"`
	Journal  *journal.Stats `json:"journal,omitempty"`
	Recovery *RecoveryStats `json:"recovery,omitempty"`
}

// MaxSubmitBytes bounds a POST /v1/jobs body on both tiers. What the router
// accepts it must be able to hand off, and a shard refuses a handoff frame
// above 16 MiB. The frame is the job re-marshalled, with its name a second
// time as the handoff key, and json.Marshal writes a body byte as up to six
// (<, >, & and U+2028/9 become \uXXXX): 12 × 1 MiB plus the envelope fits,
// 12 × 2 MiB does not.
const MaxSubmitBytes = 1 << 20

// submitDecoder is a strict JSON decoder that outlives a request, so its
// read buffer is paid for once instead of per submission. To the decoder the
// bodies it is pointed at are one stream of values; that is only sound
// because DecodeSubmit keeps a decoder solely after proving that nothing of
// the request it served is left unread — a kept decoder that still held
// bytes would feed one client's tail to the next client's job.
type submitDecoder struct {
	dec  *json.Decoder // reads from the submitDecoder itself
	body io.Reader     // the request being decoded; nil between requests
	read int           // bytes of it read so far
	tail [256]byte     // scratch for reading what follows the value
}

// submitDecoderKeep is the largest body after which a decoder is kept: its
// buffer has grown to the body's size and would pin that much per pool slot.
const submitDecoderKeep = 64 << 10

func (d *submitDecoder) Read(p []byte) (int, error) {
	n, err := d.body.Read(p)
	d.read += n
	return n, err
}

var submitDecoders = sync.Pool{New: func() any {
	d := new(submitDecoder)
	d.dec = json.NewDecoder(d)
	d.dec.DisallowUnknownFields()
	return d
}}

// onlySpaceFollows reads the rest of the request — first what the decoder
// read ahead, then the body to its end — and reports an error unless it is
// all JSON whitespace. On nil the decoder holds no byte that can matter.
func (d *submitDecoder) onlySpaceFollows() error {
	for _, r := range [...]io.Reader{d.dec.Buffered(), d} {
		for {
			n, err := r.Read(d.tail[:])
			for _, c := range d.tail[:n] {
				if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
					return fmt.Errorf("invalid character %q after top-level value", c)
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeSubmit reads one POST /v1/jobs body into req: strict fields, one
// JSON value and nothing but whitespace after it, at most MaxSubmitBytes.
// When it cannot it answers 400 — 413 for an oversized body — with the JSON
// error envelope and reports false.
func DecodeSubmit(w http.ResponseWriter, r *http.Request, req any) bool {
	d := submitDecoders.Get().(*submitDecoder)
	d.body, d.read = http.MaxBytesReader(w, r.Body, MaxSubmitBytes), 0
	err := d.dec.Decode(req)
	if err == nil {
		err = d.onlySpaceFollows()
	}
	d.body = nil
	if err == nil {
		if d.read <= submitDecoderKeep {
			submitDecoders.Put(d)
		}
		return true
	}
	// d is dropped: after an error it may hold unread bytes, or a sticky
	// error of its own.
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, errorBody{Error: "bad request", Code: CodeInvalid, Reason: err.Error()})
	return false
}

// WriteSubmitError renders a refused submission: the SubmitError code picks
// the status (400 invalid, 409 duplicate, 422 infeasible, 429 overloaded,
// 503 draining, 500 internal), a backoff hint becomes Retry-After, and the
// body is the JSON error envelope. Both tiers answer POST /v1/jobs through
// ClientMux, so a client cannot tell them apart by their refusals.
func WriteSubmitError(w http.ResponseWriter, err error) {
	var se *SubmitError
	if !errors.As(err, &se) {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	status := http.StatusBadRequest
	switch se.Code {
	case CodeDuplicate:
		status = http.StatusConflict
	case CodeInfeasible:
		status = http.StatusUnprocessableEntity
	case CodeOverloaded:
		status = http.StatusTooManyRequests
	case CodeDraining:
		status = http.StatusServiceUnavailable
	case CodeInternal:
		status = http.StatusInternalServerError
	}
	if se.RetryAfter > 0 {
		setRetryAfter(w, se.RetryAfter)
	}
	writeJSON(w, status, errorBody{Error: "rejected", Code: se.Code, Reason: se.Reason})
}

// setRetryAfter renders the backoff hint in whole seconds, rounded up so a
// sub-second hint never becomes "retry immediately".
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
