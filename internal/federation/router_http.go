package federation

import (
	"net/http"

	"repro/internal/service"
)

// SubmitRequest is the service's wire shape, so clients (and gridload)
// talk to a router exactly as they talk to a single gridd.
type SubmitRequest = service.SubmitRequest

type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// Handler returns the router's HTTP API — the client-facing subset is
// shape-compatible with a shard's:
//
//	POST /v1/jobs                — submit (202, or the service error codes)
//	GET  /v1/jobs                — router ledger
//	GET  /v1/jobs/{id}           — one ledger entry
//	GET  /metrics                — Prometheus text format
//	GET  /healthz                — liveness (always 200)
//	GET  /readyz                 — 503 while draining
//	POST /v1/federation/join     — shard rejoin handshake
//	POST /v1/federation/terminal — shard terminal notice
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", r.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, r.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("id")
		view, ok := r.Job(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job", Reason: id})
			return
		}
		writeJSON(w, http.StatusOK, view)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.cfg.Telemetry.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		r.mu.Lock()
		draining := r.draining
		r.mu.Unlock()
		if draining {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("POST /v1/federation/join", r.handleJoin)
	mux.HandleFunc("POST /v1/federation/terminal", r.handleTerminal)
	return mux
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var sr SubmitRequest
	if !service.DecodeSubmit(w, req, &sr) {
		return
	}
	view, err := r.Submit(sr.Job, sr.Strategy, sr.Priority)
	if err != nil {
		service.WriteSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

func (r *Router) handleJoin(w http.ResponseWriter, req *http.Request) {
	var jr JoinRequest
	if err := decodeJSONBody(req.Body, maxFrameBytes, &jr); err != nil || jr.Shard == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad join request"})
		return
	}
	r.HandleJoin(&jr)
	w.WriteHeader(http.StatusOK)
}

func (r *Router) handleTerminal(w http.ResponseWriter, req *http.Request) {
	var n TerminalNotice
	if err := decodeJSONBody(req.Body, maxFrameBytes, &n); err != nil || n.Job == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad terminal notice"})
		return
	}
	// The journal append inside happens before this 200, which ends the
	// shard's redelivery. The router's record is not the only copy: the
	// shard's journaled ledger is a second, which answers a handoff resent
	// for a job recovered as "handed" or at the shard's join. What
	// the router's fsync buys is independence — after a crash its ledger is
	// complete whether or not that shard and its disk are still there.
	r.HandleTerminal(&n)
	w.WriteHeader(http.StatusOK)
}
