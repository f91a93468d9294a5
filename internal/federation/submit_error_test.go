package federation

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/service"
)

// submitErrorStatus is the one SubmitError→HTTP contract both tiers serve.
var submitErrorStatus = map[string]int{
	service.CodeInvalid:    http.StatusBadRequest,
	service.CodeDuplicate:  http.StatusConflict,
	service.CodeInfeasible: http.StatusUnprocessableEntity,
	service.CodeOverloaded: http.StatusTooManyRequests,
	service.CodeDraining:   http.StatusServiceUnavailable,
	service.CodeInternal:   http.StatusInternalServerError,
}

// submitErrorBody is the error body both tiers render a refusal as
// (service.WriteSubmitError).
type submitErrorBody struct {
	Error  string `json:"error"`
	Code   string `json:"code,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// TestSubmitErrorMappingIsSharedByBothTiers drives every refusal a gridd
// and a gridfront can produce through their real POST /v1/jobs handlers
// and checks both render it by the same table — status, Retry-After, body
// — then walks the remaining codes and the Retry-After rounding through
// the shared function itself.
func TestSubmitErrorMappingIsSharedByBothTiers(t *testing.T) {
	type tier struct {
		name    string
		handler http.Handler
		drain   func()
	}
	svc, err := service.New(service.Config{Env: testEnv(), QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Shards: []ShardClient{&scriptShard{name: "s0"}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	tiers := []tier{
		{"gridd", svc.Handler(), func() { svc.Drain(cancelled) }},
		{"gridfront", r.Handler(), func() { r.Drain(cancelled) }},
	}

	body := func(id string, deadline int64, strategy string) string {
		b, _ := json.Marshal(SubmitRequest{Job: testJob(id, deadline), Strategy: strategy})
		return string(b)
	}
	// A job whose graph is a cycle passes every check on the wire form; only
	// building the graph finds it.
	cyclic := func(id string) string {
		j := testJob(id, 60)
		j.Edges = append(j.Edges, jobio.Edge{Name: "back", From: "B", To: "A", BaseTime: 1, Volume: 5})
		b, _ := json.Marshal(SubmitRequest{Job: j, Strategy: "S1"})
		return string(b)
	}
	// Each step posts one body to a tier; want is the refusal code expected
	// there ("" = 202), keyed by tier where the tiers legitimately differ:
	// only a shard judges feasibility and bounds its queue.
	steps := []struct {
		name, body string
		drainFirst bool
		want       map[string]string
	}{
		// GET /v1/jobs/{id} cannot reach these: the mux cleans the path. First, so
		// that no queued job stands between them and a 202.
		{name: "job named ..", body: body("..", 60, "S1"),
			want: map[string]string{"gridd": service.CodeInvalid, "gridfront": service.CodeInvalid}},
		{name: "job named .", body: body(".", 60, "S1"),
			want: map[string]string{"gridd": service.CodeInvalid, "gridfront": service.CodeInvalid}},
		{name: "accept", body: body("a", 60, "S1")},
		{name: "duplicate", body: body("a", 60, "S1"),
			want: map[string]string{"gridd": service.CodeDuplicate, "gridfront": service.CodeDuplicate}},
		{name: "invalid strategy", body: body("b", 60, "NOPE"),
			want: map[string]string{"gridd": service.CodeInvalid, "gridfront": service.CodeInvalid}},
		{name: "cycle", body: cyclic("i"),
			want: map[string]string{"gridd": service.CodeInvalid, "gridfront": service.CodeInvalid}},
		{name: "malformed", body: `{"name": 7}`,
			want: map[string]string{"gridd": service.CodeInvalid, "gridfront": service.CodeInvalid}},
		{name: "bytes after the value", body: body("f", 60, "S1") + "garbage",
			want: map[string]string{"gridd": service.CodeInvalid, "gridfront": service.CodeInvalid}},
		{name: "a second value", body: body("g", 60, "S1") + "\n" + body("h", 60, "S1"),
			want: map[string]string{"gridd": service.CodeInvalid, "gridfront": service.CodeInvalid}},
		{name: "infeasible deadline", body: body("c", 1, "S1"),
			want: map[string]string{"gridd": service.CodeInfeasible}},
		{name: "queue full", body: body("d", 60, "S1"),
			want: map[string]string{"gridd": service.CodeOverloaded}},
		{name: "draining", body: body("e", 60, "S1"), drainFirst: true,
			want: map[string]string{"gridd": service.CodeDraining, "gridfront": service.CodeDraining}},
	}
	// Backpressure carries a whole-second hint: 1 s on both tiers. Other
	// refusals carry none. The rounding is checked below.
	wantRetryAfter := map[string]string{
		"gridd/" + service.CodeOverloaded:   "1",
		"gridd/" + service.CodeDraining:     "1",
		"gridfront/" + service.CodeDraining: "1",
	}
	post := func(tr tier, step, body, code string) {
		t.Helper()
		rec := httptest.NewRecorder()
		tr.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		if code == "" {
			if rec.Code != http.StatusAccepted {
				t.Errorf("%s/%s: status %d, want 202", tr.name, step, rec.Code)
			}
			return
		}
		var got submitErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s/%s: body %q: %v", tr.name, step, rec.Body, err)
		}
		if rec.Code != submitErrorStatus[code] || got.Code != code || got.Reason == "" {
			t.Errorf("%s/%s: status %d body %+v, want %d with code %q and a reason",
				tr.name, step, rec.Code, got, submitErrorStatus[code], code)
		}
		if h, want := rec.Header().Get("Retry-After"), wantRetryAfter[tr.name+"/"+code]; h != want {
			t.Errorf("%s/%s: Retry-After %q, want %q", tr.name, step, h, want)
		}
	}
	// absent checks that none of ids reached tr's ledger.
	absent := func(tr tier, ids ...string) {
		t.Helper()
		for _, id := range ids {
			rec := httptest.NewRecorder()
			tr.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
			if rec.Code != http.StatusNotFound {
				t.Errorf("%s: job %s from a refused body is on the ledger (%d)", tr.name, id, rec.Code)
			}
		}
	}
	for _, tr := range tiers {
		for _, st := range steps {
			if st.drainFirst {
				tr.drain()
			}
			post(tr, st.name, st.body, st.want[tr.name])
		}
		absent(tr, "f", "g", "h", "i")
	}

	// A journal append that fails refuses the job on both tiers, as the
	// shard always did: the client is not told "accepted" for a job a
	// restart would forget. Each tier journals into a journal already
	// closed, so its first append fails.
	closedJournal := func() *journal.Journal {
		jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncNever, IsTerminal: service.Terminal})
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		return jnl
	}
	jsvc, err := service.New(service.Config{Env: testEnv(), Journal: closedJournal()})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := New(Config{Shards: []ShardClient{&scriptShard{name: "s0"}}, Journal: closedJournal(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []tier{{name: "gridd", handler: jsvc.Handler()}, {name: "gridfront", handler: jr.Handler()}} {
		post(tr, "journal append fails", body("j", 60, "S1"), service.CodeInternal)
		absent(tr, "j")
	}
	if a, b := jsvc.Metrics().Accepted, jr.Metrics().Accepted; a != 0 || b != 0 {
		t.Errorf("a job refused for its journal append counts as accepted: gridd %d, gridfront %d", a, b)
	}

	// The codes no live handler state reaches, and the rounding edges.
	direct := []struct {
		err        error
		status     int
		retryAfter string
		body       submitErrorBody
	}{
		{&service.SubmitError{Code: "some-future-code", Reason: "x"},
			http.StatusBadRequest, "", submitErrorBody{Error: "rejected", Code: "some-future-code", Reason: "x"}},
		{&service.SubmitError{Code: service.CodeOverloaded, Reason: "full", RetryAfter: time.Millisecond},
			http.StatusTooManyRequests, "1", submitErrorBody{Error: "rejected", Code: service.CodeOverloaded, Reason: "full"}},
		{&service.SubmitError{Code: service.CodeOverloaded, Reason: "full", RetryAfter: 3 * time.Second},
			http.StatusTooManyRequests, "3", submitErrorBody{Error: "rejected", Code: service.CodeOverloaded, Reason: "full"}},
		{errors.New("not a SubmitError"),
			http.StatusInternalServerError, "", submitErrorBody{Error: "not a SubmitError"}},
	}
	for _, d := range direct {
		rec := httptest.NewRecorder()
		service.WriteSubmitError(rec, d.err)
		var got submitErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%v: body %q: %v", d.err, rec.Body, err)
		}
		if rec.Code != d.status || rec.Header().Get("Retry-After") != d.retryAfter || got != d.body {
			t.Errorf("%v: status %d Retry-After %q body %+v, want %d %q %+v",
				d.err, rec.Code, rec.Header().Get("Retry-After"), got, d.status, d.retryAfter, d.body)
		}
	}
}
