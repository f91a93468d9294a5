package federation

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/service"
)

// raceDetectorOn reports whether this test binary was built with -race,
// under which sync.Pool drops a quarter of what it is given and pooled
// memory is allocated again at random.
func raceDetectorOn() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// discardResponse is an http.ResponseWriter that allocates nothing.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestDurablePathAllocationCeilings: the fixed steps every federated job
// pays — the router's strict decode of the submission, a journal append
// with and without the wire form, the sync that makes an append durable,
// the handoff frame — allocate what they
// return and nothing for the encoding or the buffers around it. Each
// ceiling is the measured value; a step that starts building its record,
// frame or read buffer afresh breaches it here, per commit, instead of
// showing as a drift in a two-minute ledger.
func TestDurablePathAllocationCeilings(t *testing.T) {
	if raceDetectorOn() {
		t.Skip("sync.Pool drops items at random under -race; the ceilings hold for the plain build")
	}

	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncAlways, IsTerminal: service.Terminal})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	wire := testJob("light", 60)
	appendRec := func(rec journal.Record) func() {
		return func() {
			if _, err := jnl.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}

	frame := getWireBuf()
	defer putWireBuf(frame)
	handoff := testHandoff("light")

	body, err := json.Marshal(SubmitRequest{Job: wire, Strategy: "S1"})
	if err != nil {
		t.Fatal(err)
	}
	rd := strings.NewReader("")
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
	req.Body = struct {
		io.Reader
		io.Closer
	}{rd, io.NopCloser(nil)}
	w := &discardResponse{h: http.Header{}}

	steps := []struct {
		name    string
		ceiling float64
		run     func()
	}{
		// The job's strings and its task and edge slices, plus the two small
		// readers around the body (the size cap, the look at the decoder's
		// read-ahead) — not a decoder and its buffer.
		{"DecodeSubmit of a light job", 9, func() {
			rd.Reset(string(body))
			var sr SubmitRequest
			if !service.DecodeSubmit(w, req, &sr) || sr.Name != "light" || len(sr.Tasks) != 2 {
				t.Fatalf("decode failed: %+v", sr)
			}
		}},
		{"Journal.Append, queued with wire form", 0, appendRec(journal.Record{Job: "light", State: service.StateQueued, Strategy: "S1", Priority: 1, Wire: &wire})},
		{"Journal.Append, state only", 0, appendRec(journal.Record{Job: "light", State: service.StateCompleted})},
		{"Journal.Sync of an append", 0, func() {
			lsn, err := jnl.Append(journal.Record{Job: "light", State: service.StateCompleted})
			if err == nil {
				err = jnl.Sync(lsn)
			}
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"handoff frame encode", 0, func() {
			if err := frame.encodeHandoff(handoff); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, st := range steps {
		st.run() // first use pays for the buffers that are then kept
		if got := testing.AllocsPerRun(200, st.run); got > st.ceiling {
			t.Errorf("%s: %.0f allocations, ceiling %.0f", st.name, got, st.ceiling)
		}
	}
}

// cannedBody is a response body that can be answered again and again.
type cannedBody struct{ strings.Reader }

func (*cannedBody) Close() error { return nil }

// cannedTransport answers every request 200 with the router's terminal
// acknowledgement, from memory it owns, so what a test counts is the
// client side's alone.
type cannedTransport struct {
	resp http.Response
	body cannedBody
	hdr  http.Header
}

func (c *cannedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	c.body.Reset(`{"status":"ok"}` + "\n")
	c.resp = http.Response{StatusCode: http.StatusOK, Header: c.hdr, Body: &c.body, Request: r}
	return &c.resp, nil
}

// TestTerminalNoticeAllocationCeiling: a shard pays one terminal notice per
// job. Delivering it allocates 16 times on the client side — the request,
// its marshalled body and what net/http builds around them — and no more.
func TestTerminalNoticeAllocationCeiling(t *testing.T) {
	if raceDetectorOn() {
		t.Skip("sync.Pool drops items at random under -race; the ceiling holds for the plain build")
	}
	m := NewMember(MemberConfig{Shard: "s0", Router: "http://router.invalid",
		Client: &http.Client{Transport: &cannedTransport{hdr: http.Header{}}}})
	n := TerminalNotice{Shard: "s0", Job: "job-1", State: service.StateCompleted}
	deliver := func() {
		if err := m.deliver(n); err != nil {
			t.Fatal(err)
		}
	}
	deliver()
	if got := testing.AllocsPerRun(500, deliver); got > 16 {
		t.Errorf("a terminal notice allocates %.0f times, ceiling 16", got)
	}
}
