package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postJob(t *testing.T, ts *httptest.Server, req SubmitRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPLifecycle(t *testing.T) {
	s := newServer(t, Config{QueueCap: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Health and readiness while serving.
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Submit: accepted.
	resp := postJob(t, ts, SubmitRequest{Job: wireJob("h1", 60), Strategy: "S2", Priority: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	var rec Record
	decodeInto(t, resp, &rec)
	if rec.ID != "h1" || rec.State != StateQueued || rec.Strategy != "S2" {
		t.Fatalf("record: %+v", rec)
	}

	// Duplicate → 409.
	resp = postJob(t, ts, SubmitRequest{Job: wireJob("h1", 60)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate = %d", resp.StatusCode)
	}

	// Infeasible deadline → 422.
	resp = postJob(t, ts, SubmitRequest{Job: wireJob("h-tight", 3)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible = %d", resp.StatusCode)
	}

	// Malformed body → 400.
	raw, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(`{"bogus":`)))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed = %d", raw.StatusCode)
	}

	// Fill the queue, then overflow → 429 with Retry-After.
	resp = postJob(t, ts, SubmitRequest{Job: wireJob("h2", 60)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fill = %d", resp.StatusCode)
	}
	resp = postJob(t, ts, SubmitRequest{Job: wireJob("h3", 60)})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var eb errorBody
	decodeInto(t, resp, &eb)
	if eb.Code != CodeOverloaded {
		t.Fatalf("error body: %+v", eb)
	}

	// Drive the queue in manual mode, then read the results back.
	s.Process(-1)
	s.Quiesce()
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/h1")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, &rec)
	if rec.State != StateCompleted {
		t.Fatalf("h1 state = %q (%s)", rec.State, rec.Reason)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d", resp.StatusCode)
	}

	var list []Record
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, &list)
	if len(list) != 3 { // h1, h-tight (rejected), h2
		t.Fatalf("list = %d records: %+v", len(list), list)
	}

	var m Metrics
	resp, err = ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, &m)
	if m.Completed != 2 || m.Overloaded != 1 || m.Infeasible != 1 {
		t.Fatalf("metrics: %+v", m)
	}

	// Drain flips readiness and refuses new work with 503.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d", resp.StatusCode)
	}
	resp = postJob(t, ts, SubmitRequest{Job: wireJob("h-late", 60)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d", resp.StatusCode)
	}
}

func TestHTTPConcurrentSubmitAndPoll(t *testing.T) {
	s := newServer(t, Config{QueueCap: 32})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 10; i++ {
				resp := postJob(t, ts, SubmitRequest{Job: wireJob(fmt.Sprintf("c%d-%d", w, i), 80)})
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusTooManyRequests {
					done <- fmt.Errorf("worker %d: status %d", w, resp.StatusCode)
					return
				}
				r, err := ts.Client().Get(ts.URL + "/v1/metrics")
				if err != nil {
					done <- err
					return
				}
				r.Body.Close()
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, rec := range s.Jobs() {
		if !Terminal(rec.State) {
			t.Errorf("%s: non-terminal %q after drain", rec.ID, rec.State)
		}
	}
}

// TestHTTPRetryAfterAndHealthz: backpressure responses (429 and 503) must
// carry Retry-After, and /healthz must surface journal activity and the
// startup recovery outcome.
func TestHTTPRetryAfterAndHealthz(t *testing.T) {
	dir := t.TempDir()

	// Seed the journal with a crashed predecessor: one completed, one queued.
	victim, _ := newJournaledServer(t, dir)
	for _, name := range []string{"w1", "w2"} {
		if _, err := victim.Submit(wireJob(name, 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	victim.Process(1)
	victim.Quiesce()

	s, stats := newJournaledServer(t, dir)
	if stats.Requeued != 1 || stats.Terminal != 1 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var hb healthzBody
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, &hb)
	if hb.Status != "ok" || hb.Journal == nil || hb.Recovery == nil {
		t.Fatalf("healthz body: %+v", hb)
	}
	if hb.Journal.Appends == 0 || hb.Recovery.Requeued != 1 || hb.Recovery.Terminal != 1 {
		t.Fatalf("healthz detail: journal=%+v recovery=%+v", hb.Journal, hb.Recovery)
	}

	// Drain, then both the submit 503 and the readyz 503 must say when to
	// come back.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp = postJob(t, ts, SubmitRequest{Job: wireJob("late", 60)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 submit without Retry-After header")
	}
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("readyz while draining: status=%d Retry-After=%q",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestSubmitBodyIsCapped pins the POST /v1/jobs body cap on a gridd: a body
// one byte over MaxSubmitBytes gets 413 with the error envelope and leaves
// no trace — no ledger entry, no submission counted — while a body of exactly
// the cap is accepted and runs to a terminal state.
func TestSubmitBodyIsCapped(t *testing.T) {
	s := newServer(t, Config{QueueCap: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// submission is a valid job whose body is exactly size bytes, padded in
	// the job's name.
	submission := func(prefix string, size int) SubmitRequest {
		bare, err := json.Marshal(SubmitRequest{Job: wireJob(prefix, 60)})
		if err != nil {
			t.Fatal(err)
		}
		return SubmitRequest{Job: wireJob(prefix+strings.Repeat("x", size-len(bare)), 60)}
	}

	before := s.Metrics().Submitted
	big := submission("too-big", MaxSubmitBytes+1)
	resp := postJob(t, ts, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit = %d, want 413", resp.StatusCode)
	}
	var eb errorBody
	decodeInto(t, resp, &eb)
	if eb.Code != CodeInvalid || eb.Reason == "" {
		t.Errorf("oversized submit body: %+v", eb)
	}
	if _, ok := s.Job(big.Name); ok {
		t.Error("the refused job is on the ledger")
	}
	if got := s.Metrics().Submitted; got != before {
		t.Errorf("the refused job was counted: submitted %d → %d", before, got)
	}

	fits := submission("fits", MaxSubmitBytes)
	resp = postJob(t, ts, fits)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit at the cap = %d, want 202", resp.StatusCode)
	}
	s.Process(-1)
	s.Quiesce()
	if rec, _ := s.Job(fits.Name); rec.State != StateCompleted {
		t.Fatalf("the job at the cap ended %q (%s)", rec.State, rec.Reason)
	}
}
