package federation

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// TestRouterRefusesAnOversizedSubmit pins the POST /v1/jobs body cap on the
// router. A shard refuses a handoff frame it cannot carry as bad_frame, which
// the router retries as transient, so a job too large to hand off must never
// be accepted: without the cap the router answers 202 and the job then cycles
// handed ↔ revoking for ever. An oversized body gets 413 and leaves no trace
// — no ledger entry, no submission counted, no handoff attempted — and a job
// whose body is exactly the cap is accepted and reaches a terminal state.
// The cap is small enough for that whatever the body holds: the admissible
// body that grows most on its way into a frame still fits one.
func TestRouterRefusesAnOversizedSubmit(t *testing.T) {
	// submission is a valid job whose body is exactly size bytes, padded in
	// the job's name.
	submission := func(prefix, pad string, size int) (id string, body []byte) {
		encode := func(id string) []byte {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(SubmitRequest{Job: testJob(id, 60), Strategy: "S1"}); err != nil {
				t.Fatal(err)
			}
			return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		}
		id = prefix + strings.Repeat(pad, size-len(encode(prefix)))
		return id, encode(id)
	}

	// The worst body: all of it in the name, which the frame carries twice
	// (key and job), in a character json.Marshal re-escapes to six bytes.
	_, worst := submission("worst", "<", service.MaxSubmitBytes)
	var sr SubmitRequest
	if err := json.Unmarshal(worst, &sr); err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeHandoff(&Handoff{Key: sr.Name, Job: sr.Job, Strategy: sr.Strategy})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHandoff(frame); err != nil {
		t.Fatalf("a %d-byte body at the cap makes a %d-byte frame a shard refuses: %v", len(worst), len(frame), err)
	}

	f := startHTTPFederation(t, 1, nil)
	post := func(body []byte) int {
		t.Helper()
		resp, err := f.client.Post(f.url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	before := scrape(t, f.router.Handler())
	id, body := submission("too-big", "x", service.MaxSubmitBytes+1)
	if got := post(body); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", got)
	}
	if _, ok := f.router.Job(id); ok {
		t.Error("the refused job is on the router's ledger")
	}
	after := scrape(t, f.router.Handler())
	for _, series := range []string{"grid_fed_submitted_total", "grid_fed_handoffs_total"} {
		if after[series] != before[series] {
			t.Errorf("the refused job was counted: %s %v → %v", series, before[series], after[series])
		}
	}

	id, body = submission("fits", "x", service.MaxSubmitBytes)
	if got := post(body); got != http.StatusAccepted {
		t.Fatalf("submit at the cap: status %d, want 202", got)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		view, _ := f.router.Job(id)
		if view.State == service.StateCompleted || view.State == service.StateRejected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the job at the cap never went terminal: state %q, router %+v", view.State, f.router.Metrics())
		}
		time.Sleep(25 * time.Millisecond)
	}
}
