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

	samples := scrape(t, s.Handler())
	for series, want := range map[string]float64{
		"grid_service_completed_total":  2,
		"grid_service_overloaded_total": 1,
		"grid_service_infeasible_total": 1,
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	// GET /metrics is the one exposition: no JSON counter view is served.
	resp, err = ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/metrics = %d, want 404", resp.StatusCode)
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
				r, err := ts.Client().Get(ts.URL + "/metrics")
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
// carry Retry-After, and /healthz must surface the journal's position and
// ledger and the startup recovery outcome.
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
	// Restore journals nothing; one accept is the activity to surface: the
	// journal's next LSN is one past it, and its ledger holds it live.
	resp := postJob(t, ts, SubmitRequest{Job: wireJob("w3", 60)})
	resp.Body.Close()

	var hb healthzBody
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, &hb)
	if hb.Status != "ok" || hb.Journal == nil || hb.Recovery == nil {
		t.Fatalf("healthz body: %+v", hb)
	}
	if hb.Journal.NextLSN != hb.Recovery.LastLSN+2 || hb.Journal.Jobs != 3 || hb.Journal.Live != 2 ||
		hb.Recovery.Requeued != 1 || hb.Recovery.Terminal != 1 {
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

	before := readTally(s).Submitted
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
	if got := readTally(s).Submitted; got != before {
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

// postRaw serves one POST /v1/jobs with the given body straight through the
// handler and returns the recorded answer.
func postRaw(h http.Handler, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	return rr
}

func submitBody(t *testing.T, name string) string {
	t.Helper()
	b, err := json.Marshal(SubmitRequest{Job: wireJob(name, 60), Strategy: "S1"})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSubmitRejectsTrailingBytes: a body is one JSON value. Anything but
// whitespace after it — near the value or far behind the decoder's
// read-ahead — is a 400 that leaves no trace; whitespace is fine.
func TestSubmitRejectsTrailingBytes(t *testing.T) {
	s := newServer(t, Config{QueueCap: 64})
	h := s.Handler()
	far := strings.Repeat(" \n", 4000) // well past one decoder refill
	for i, tail := range []string{"garbage", "}", "]", "{}", " x", "\n\n0", "\x00", far + "x", far + submitBody(t, "evil")} {
		name := fmt.Sprintf("bad%d", i)
		before := readTally(s).Submitted
		rr := postRaw(h, submitBody(t, name)+tail)
		var eb errorBody
		if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil {
			t.Fatalf("tail %q: body %q: %v", tail, rr.Body, err)
		}
		if rr.Code != http.StatusBadRequest || eb.Code != CodeInvalid || !strings.Contains(eb.Reason, "after top-level value") {
			t.Errorf("tail %.20q: %d %+v, want 400 %s naming the trailing byte", tail, rr.Code, eb, CodeInvalid)
		}
		if _, ok := s.Job(name); ok {
			t.Errorf("tail %.20q: the refused job is on the ledger", tail)
		}
		if got := readTally(s).Submitted; got != before {
			t.Errorf("tail %.20q: the refused job was counted", tail)
		}
	}
	for i, tail := range []string{"", " ", "\n", "\r\n\t ", far} {
		name := fmt.Sprintf("ok%d", i)
		if rr := postRaw(h, submitBody(t, name)+tail); rr.Code != http.StatusAccepted {
			t.Errorf("whitespace tail %.20q: %d %s, want 202", tail, rr.Code, rr.Body)
		}
		if _, ok := s.Job(name); !ok {
			t.Errorf("whitespace tail %.20q: job missing from the ledger", tail)
		}
	}
	if _, ok := s.Job("evil"); ok {
		t.Error("a second value riding behind a body was admitted")
	}
}

// TestSubmitDecoderKeepsRequestsApart: DecodeSubmit reuses decoders between
// requests, so whatever one request leaves behind — a tail, half a value, a
// sticky error, an oversized body — must never reach the next. One handler
// serves a hostile sequence with a well-formed job after every step, then
// the same from several goroutines at once (the -race half).
func TestSubmitDecoderKeepsRequestsApart(t *testing.T) {
	s := newServer(t, Config{QueueCap: 4096})
	h := s.Handler()
	good := 0
	admit := func() {
		t.Helper()
		name := fmt.Sprintf("good%d", good)
		good++
		if rr := postRaw(h, submitBody(t, name)+"\n"); rr.Code != http.StatusAccepted {
			t.Fatalf("%s after a hostile request: %d %s", name, rr.Code, rr.Body)
		}
		if rec, ok := s.Job(name); !ok || rec.ID != name {
			t.Fatalf("%s: ledger has %+v", name, rec)
		}
	}
	admit()
	hostile := []string{
		submitBody(t, "h0") + submitBody(t, "smuggled"), // a whole second job as the tail
		submitBody(t, "h1")[:40],                        // half a value
		"",                                              // nothing: the decoder's own EOF
		`{"name":"h3","bogus":1}`,                       // strict-field refusal mid-object
		`{"name":"h4"} {"name":"smuggled"`,              // value, then half of another
		strings.Repeat("x", MaxSubmitBytes+10),          // oversized garbage
		`[`,
		submitBody(t, "h7") + " ,",
	}
	for i, body := range hostile {
		if rr := postRaw(h, body); rr.Code != http.StatusBadRequest && rr.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("hostile body %d: %d %s, want a 400 or 413", i, rr.Code, rr.Body)
		}
		admit()
		admit()
	}
	want := good
	for _, rec := range s.Jobs() {
		if !strings.HasPrefix(rec.ID, "good") {
			t.Errorf("job %q reached the ledger", rec.ID)
		}
	}

	const workers, each = 6, 40
	done := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			for i := 0; i < each; i++ {
				name := fmt.Sprintf("par%d-%d", g, i)
				body, _ := json.Marshal(SubmitRequest{Job: wireJob(name, 60), Strategy: "S1"})
				if i%3 == 1 {
					if rr := postRaw(h, string(body)+"tail"); rr.Code != http.StatusBadRequest {
						done <- fmt.Errorf("%s with a tail: %d", name, rr.Code)
						return
					}
				}
				if rr := postRaw(h, string(body)); rr.Code != http.StatusAccepted {
					done <- fmt.Errorf("%s: %d %s", name, rr.Code, rr.Body)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	if got := len(s.Jobs()); got != want+workers*each {
		t.Errorf("ledger holds %d jobs, want %d", got, want+workers*each)
	}
}
