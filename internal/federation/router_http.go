package federation

import (
	"net/http"

	"repro/internal/service"
)

// SubmitRequest is the service's wire shape, so clients (and gridload)
// talk to a router exactly as they talk to a single gridd.
type SubmitRequest = service.SubmitRequest

// Handler returns the router's HTTP API: the client API of
// service.ClientMux, which a shard's gridd serves too, and the two
// endpoints its shards call:
//
//	POST /v1/federation/join     — shard rejoin handshake
//	POST /v1/federation/terminal — shard terminal notice
func (r *Router) Handler() http.Handler {
	mux := service.ClientMux(r, r.cfg.Journal, r.cfg.Telemetry, nil)
	mux.HandleFunc("POST /v1/federation/join", r.handleJoin)
	mux.HandleFunc("POST /v1/federation/terminal", r.handleTerminal)
	return mux
}

func (r *Router) handleJoin(w http.ResponseWriter, req *http.Request) {
	var jr JoinRequest
	if err := decodeJSONBody(req.Body, maxFrameBytes, &jr); err != nil || jr.Shard == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad join request"})
		return
	}
	r.HandleJoin(&jr)
	w.WriteHeader(http.StatusOK)
}

func (r *Router) handleTerminal(w http.ResponseWriter, req *http.Request) {
	var n TerminalNotice
	if err := decodeJSONBody(req.Body, maxFrameBytes, &n); err != nil || n.Job == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad terminal notice"})
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
