package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// postWire submits one wire job over HTTP and returns the response; the
// body is decoded into out when non-nil.
func postWire(t *testing.T, client *http.Client, url string, req SubmitRequest, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %d response: %v", resp.StatusCode, err)
		}
	}
	return resp
}

// mustParseRetryAfter asserts the response carries a parseable, positive
// whole-seconds Retry-After header and returns it.
func mustParseRetryAfter(t *testing.T, resp *http.Response) int {
	t.Helper()
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatalf("status %d response has no Retry-After header", resp.StatusCode)
	}
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("status %d Retry-After %q is not an integer: %v", resp.StatusCode, ra, err)
	}
	if secs < 1 {
		t.Fatalf("status %d Retry-After %d < 1 invites an immediate retry storm", resp.StatusCode, secs)
	}
	return secs
}

// checkHealthz asserts GET /healthz returns 200 with status ok.
func checkHealthz(t *testing.T, client *http.Client, url string) {
	t.Helper()
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("/healthz body: %v", err)
	}
	if body.Status != "ok" {
		t.Fatalf("/healthz status = %q", body.Status)
	}
}

// TestOverloadEndToEnd drives the service's overload path through the real
// HTTP stack with an open-loop burst far beyond the queue bound (the
// manual-mode server never dequeues during the burst, so the queue cannot
// drain). It asserts the full backpressure contract:
//
//   - every 429 carries a parseable Retry-After ≥ 1s;
//   - the shed and overloaded counters exactly match what clients saw;
//   - /healthz stays 200 throughout the overload and while draining;
//   - after Drain, submissions get 503 — also with Retry-After.
func TestOverloadEndToEnd(t *testing.T) {
	const queueCap = 4
	s := newServer(t, Config{QueueCap: queueCap})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	const burst = 40
	var got429, accepted int
	for i := 0; i < burst; i++ {
		resp := postWire(t, client, ts.URL, SubmitRequest{
			Job:      wireJob(fmt.Sprintf("burst-%02d", i), 60),
			Strategy: "S1",
		}, nil)
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			got429++
			mustParseRetryAfter(t, resp)
		default:
			t.Fatalf("burst-%02d: unexpected status %d", i, resp.StatusCode)
		}
		// The daemon must stay live while refusing work.
		if i%8 == 0 {
			checkHealthz(t, client, ts.URL)
		}
	}
	if accepted != queueCap {
		t.Errorf("accepted %d, want the queue bound %d", accepted, queueCap)
	}
	if got429 != burst-queueCap {
		t.Errorf("client saw %d 429s, want %d", got429, burst-queueCap)
	}

	// Same-priority arrivals never shed; higher-priority ones displace
	// exactly as many queued jobs, each observed by the terminal stream
	// consistency check below.
	var got202High int
	for i := 0; i < 3; i++ {
		resp := postWire(t, client, ts.URL, SubmitRequest{
			Job:      wireJob(fmt.Sprintf("vip-%d", i), 60),
			Strategy: "S1",
			Priority: 5,
		}, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("vip-%d: status %d, want 202 via shedding", i, resp.StatusCode)
		}
		got202High++
	}

	m := readTally(s)
	if m.Overloaded != uint64(got429) {
		t.Errorf("overloaded counter %d != client-observed 429s %d", m.Overloaded, got429)
	}
	if m.Shed != uint64(got202High) {
		t.Errorf("shed counter %d != displacements %d", m.Shed, got202High)
	}
	shedRecords := 0
	for _, rec := range s.Jobs() {
		if rec.State == StateRejected && rec.Reason != "" && rec.Priority == 0 {
			shedRecords++
		}
	}
	if shedRecords != got202High {
		t.Errorf("%d shed ledger records, want %d", shedRecords, got202High)
	}

	// Drain under load (the queue is still full): /healthz stays 200,
	// further submits are 503 with Retry-After, and /readyz flips to 503.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkHealthz(t, client, ts.URL)
	var errBody errorBody
	resp := postWire(t, client, ts.URL, SubmitRequest{Job: wireJob("late", 60), Strategy: "S1"}, &errBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	mustParseRetryAfter(t, resp)
	if errBody.Code != CodeDraining {
		t.Errorf("draining error code = %q", errBody.Code)
	}
	ready, err := client.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", ready.StatusCode)
	}
	mustParseRetryAfter(t, ready)
	checkHealthz(t, client, ts.URL)
}
