package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaostest"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// httpFederation is the whole wire path in one process: shards behind real
// HTTP servers with the member glue, and a started router behind its own,
// talking to them through HTTPShard clients.
type httpFederation struct {
	router  *Router
	url     string // the router's base URL
	client  *http.Client
	svcs    []*service.Server
	members []*Member
	servers []*httptest.Server // the shards'
	fleet   []ShardClient
	// requests carries every request the router sends its shards and the
	// members send the router.
	requests *requestLog
}

// requestLog is a RoundTripper that counts requests by URL path, sent and
// answered, and can send some of them through another transport.
type requestLog struct {
	mu       sync.Mutex
	sent     map[string]int
	answered map[string]int
	// route, when non-nil, picks the transport for the n-th request to a
	// path; nil from it means http.DefaultTransport.
	route func(r *http.Request, n int) http.RoundTripper
}

func newRequestLog() *requestLog {
	return &requestLog{sent: map[string]int{}, answered: map[string]int{}}
}

func (l *requestLog) RoundTrip(r *http.Request) (*http.Response, error) {
	l.mu.Lock()
	l.sent[r.URL.Path]++
	var next http.RoundTripper
	if l.route != nil {
		next = l.route(r, l.sent[r.URL.Path])
	}
	l.mu.Unlock()
	if next == nil {
		next = http.DefaultTransport
	}
	resp, err := next.RoundTrip(r)
	if err == nil {
		l.mu.Lock()
		l.answered[r.URL.Path]++
		l.mu.Unlock()
	}
	return resp, err
}

// counts returns the requests sent to path and those answered.
func (l *requestLog) counts(path string) (sent, answered int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sent[path], l.answered[path]
}

// startHTTPFederation brings up n shards (s0, s1, …) and their router, and
// tears everything down with the test. tweak, when non-nil, edits shard i's
// service config before the service is built, and returns true to leave
// that service in manual mode: it is never started, so the jobs handed to
// it stay queued. routerTweak, when given, edits the router's config before
// the router is built.
func startHTTPFederation(t testing.TB, n int, tweak func(i int, cfg *service.Config) (manual bool), routerTweak ...func(cfg *Config)) *httpFederation {
	t.Helper()
	// The members need the router's URL before the router exists, so the
	// router's server delegates through a late-bound handler.
	var routerHandler atomic.Value // http.HandlerFunc
	rts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		routerHandler.Load().(http.HandlerFunc)(w, req)
	}))
	t.Cleanup(rts.Close)
	routerHandler.Store(http.HandlerFunc(http.NotFound))

	f := &httpFederation{url: rts.URL, client: rts.Client(), requests: newRequestLog()}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		member := NewMember(MemberConfig{
			Shard: name, Router: rts.URL, Client: &http.Client{Timeout: 5 * time.Second, Transport: f.requests},
			RetryBase: 10 * time.Millisecond, RetryCap: 100 * time.Millisecond,
			Seed: uint64(i) + 1, Telemetry: telemetry.NewRegistry(),
		})
		cfg := service.Config{
			Env:        testEnv(),
			Sched:      metasched.Config{Seed: uint64(i) + 1},
			QueueCap:   64,
			OnTerminal: member.Terminal,
		}
		manual := tweak != nil && tweak(i, &cfg)
		svc, err := service.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !manual {
			svc.Start()
		}
		member.Bind(svc)
		member.Start()
		ts := httptest.NewServer(member.Handler(svc.Handler()))
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			member.Close()
			_ = svc.Drain(ctx)
			ts.Close()
		})
		f.svcs, f.members, f.servers = append(f.svcs, svc), append(f.members, member), append(f.servers, ts)
		f.fleet = append(f.fleet, NewHTTPShard(name, ts.URL, &http.Client{Timeout: 2 * time.Second, Transport: f.requests}))
	}

	cfg := Config{
		Shards:            f.fleet,
		Seed:              21,
		Telemetry:         telemetry.NewRegistry(),
		HeartbeatInterval: 50 * time.Millisecond,
		RetryBase:         10 * time.Millisecond,
	}
	for _, tw := range routerTweak {
		tw(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	routerHandler.Store(http.HandlerFunc(r.Handler().ServeHTTP))
	r.Start()
	t.Cleanup(r.Close)
	f.router = r
	return f
}

// TestHTTPFederationEndToEnd drives the whole wire path in process: two
// shards behind real HTTP servers with the member glue, a router talking
// to them through HTTPShard clients, clients submitting through the
// router's HTTP API, join handshakes and terminal notices flowing back
// over the router's own endpoint. The chaos harness covers the same path
// across processes; this test keeps it honest (and covered) at unit
// speed.
func TestHTTPFederationEndToEnd(t *testing.T) {
	f := startHTTPFederation(t, 2, nil)
	client, fleet := f.client, f.fleet

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := client.Post(f.url+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	submit := func(id string, deadline int64) *http.Response {
		t.Helper()
		job := testJob(id, deadline)
		body, _ := json.Marshal(SubmitRequest{Job: job, Strategy: "S1"})
		resp, _ := post(string(body))
		return resp
	}

	// A wave of accepts, spread across both shards by the ring.
	ids := []string{}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("http-job-%d", i)
		if resp := submit(id, 60); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", id, resp.StatusCode)
		}
		ids = append(ids, id)
	}
	// The error surface: duplicate (409), malformed (400). An infeasible
	// deadline is accepted asynchronously (202) and rejected by the shard.
	if resp := submit(ids[0], 60); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate status = %d", resp.StatusCode)
	}
	if resp, _ := post("{nope"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed status = %d", resp.StatusCode)
	}
	if resp := submit("http-doomed", 1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("infeasible submit status = %d, want async 202", resp.StatusCode)
	}

	// Everything terminal, via the router's own HTTP surface.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := client.Get(f.url + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var views []service.Record
		if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		done := 0
		for _, v := range views {
			if v.State == service.StateCompleted || v.State == service.StateRejected {
				done++
			}
		}
		if done == len(ids)+1 { // + the infeasible rejection
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs terminal", done, len(ids)+1)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Read-side endpoints.
	var view service.Record
	if err := httpGetJSON(t, client, f.url+"/v1/jobs/"+ids[0], &view); err != nil {
		t.Fatal(err)
	}
	if view.State != service.StateCompleted {
		t.Fatalf("job view = %+v", view)
	}
	if resp, err := client.Get(f.url + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job status = %d", resp.StatusCode)
		}
	}
	samples := scrape(t, f.router.Handler())
	if a, c := samples["grid_fed_accepted_total"], samples["grid_fed_completed_total"]; a != float64(len(ids))+1 || c != float64(len(ids)) {
		t.Fatalf("grid_fed_accepted_total = %v, grid_fed_completed_total = %v", a, c)
	}
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200, "/metrics": 200, "/v1/metrics": 404} {
		resp, err := client.Get(f.url + path)
		if err != nil || resp.StatusCode != want {
			t.Fatalf("GET %s: %v %d, want %d", path, err, resp.StatusCode, want)
		}
		resp.Body.Close()
	}

	// Exactly one shard ledger holds the job completed, read in process;
	// then the shard-client RPC the happy path never needed: a confirmed
	// revoke of a never-seen key (tombstone plant) over real HTTP.
	executions := 0
	for _, svc := range f.svcs {
		if rec, ok := svc.Job(ids[0]); ok && rec.State == service.StateCompleted {
			executions++
		}
	}
	if executions != 1 {
		t.Fatalf("%s completed on %d shard ledgers, want 1", ids[0], executions)
	}
	res, err := fleet[0].Revoke(context.Background(), &RevokeRequest{Key: "never-seen", Reason: "test", Epoch: 0})
	if err != nil || res.Outcome != RevokeOutcomeRevoked {
		t.Fatalf("wire revoke = (%+v, %v)", res, err)
	}
	if rec, ok := f.svcs[0].Job("never-seen"); !ok || rec.State != service.StateRevoked {
		t.Fatalf("tombstone missing: %+v", rec)
	}

	// The heartbeat probe over real HTTP, and the router's view of it:
	// both shards' breakers closed.
	if err := fleet[1].Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	samples = scrape(t, f.router.Handler())
	for _, name := range []string{"s0", "s1"} {
		if state, ok := samples[`grid_breaker_state{name="`+name+`"}`]; !ok || state != 0 {
			t.Fatalf("shard %s: grid_breaker_state = %v (series present %v), want 0", name, state, ok)
		}
	}
}

// TestRouterProbesAnswerAsAShardDoes: the router answers GET /healthz and
// GET /readyz through the service's own client API. Its /healthz carries
// its journal's positions when it journals, as gridd's does, and once it
// drains its /readyz answers as a draining gridd's does: 503, with the same
// Retry-After and body.
func TestRouterProbesAnswerAsAShardDoes(t *testing.T) {
	svc, err := service.New(service.Config{Env: testEnv(), Sched: metasched.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), IsTerminal: service.Terminal})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = jnl.Close() })
	r, err := New(Config{Shards: []ShardClient{NewLocalShard("s0", svc)}, Journal: jnl, Seed: 1,
		HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if _, err := r.Submit(testJob("j", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}

	w := get(r.Handler(), "/healthz")
	var health struct {
		Status  string
		Journal *journal.Stats
	}
	if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil || w.Code != http.StatusOK ||
		health.Status != "ok" || health.Journal == nil || *health.Journal != jnl.Stats() || health.Journal.Jobs != 1 {
		t.Fatalf("router /healthz answered %d %s, want 200 with its journal's positions %+v",
			w.Code, w.Body.Bytes(), jnl.Stats())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = r.Drain(ctx)
	_ = svc.Drain(ctx)
	rw, sw := get(r.Handler(), "/readyz"), get(svc.Handler(), "/readyz")
	if rw.Code != http.StatusServiceUnavailable || rw.Header().Get("Retry-After") == "" ||
		rw.Code != sw.Code || rw.Header().Get("Retry-After") != sw.Header().Get("Retry-After") ||
		rw.Body.String() != sw.Body.String() {
		t.Fatalf("draining router /readyz answered %d Retry-After %q %s; a draining gridd %d Retry-After %q %s",
			rw.Code, rw.Header().Get("Retry-After"), rw.Body.Bytes(),
			sw.Code, sw.Header().Get("Retry-After"), sw.Body.Bytes())
	}
}

func httpGetJSON(t *testing.T, client *http.Client, url string, out any) error {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestFaultTransportInjection pins the chaos harness's network: seeded
// fault draws are reproducible, duplication really delivers twice,
// ack-loss processes then fails, and a severed link refuses everything
// until unsevered.
func TestFaultTransportInjection(t *testing.T) {
	var served atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		served.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()

	rt := chaostest.NewFaultTransport(chaostest.FaultPlan{
		Seed: 5, Drop: 0.2, AckLoss: 0.2, Dup: 0.2, Delay: 0.3, DelayMax: 2 * time.Millisecond,
	}, nil)
	client := &http.Client{Transport: rt, Timeout: 2 * time.Second}

	okCount := 0
	for i := 0; i < 200; i++ {
		resp, err := client.Post(backend.URL, "text/plain", strings.NewReader("frame"))
		if err != nil {
			continue
		}
		resp.Body.Close()
		okCount++
	}
	drops, ackLosses, dups, delays := rt.Counts()
	if drops == 0 || ackLosses == 0 || dups == 0 || delays == 0 {
		t.Fatalf("fault mix never fired: drops=%d ackLosses=%d dups=%d delays=%d", drops, ackLosses, dups, delays)
	}
	// Every non-dropped request is processed; dups add one extra delivery
	// each, and ack-losses are processed even though the caller errored.
	wantServed := 200 - int(drops) + int(dups)
	if got := int(served.Load()); got != wantServed {
		t.Fatalf("backend served %d, want %d (drops=%d dups=%d)", got, wantServed, drops, dups)
	}
	if okCount == 0 || okCount == 200 {
		t.Fatalf("okCount = %d, want a mix", okCount)
	}

	// Severed link: everything fails, nothing reaches the backend.
	rt.Sever(true)
	if !rt.Severed() {
		t.Fatal("Severed() = false after Sever(true)")
	}
	before := served.Load()
	if _, err := client.Get(backend.URL); err == nil {
		t.Fatal("request succeeded across a severed link")
	}
	if served.Load() != before {
		t.Fatal("severed request reached the backend")
	}
	rt.Sever(false)
	resp, err := client.Get(backend.URL)
	if err != nil {
		// A fault draw can still legitimately fail it; retry a few times.
		for i := 0; i < 20 && err != nil; i++ {
			resp, err = client.Get(backend.URL)
		}
		if err != nil {
			t.Fatalf("unsevered link never recovered: %v", err)
		}
	}
	resp.Body.Close()
}

// TestGracefulShardDrainReleasesItsJobs: a shard decommissioned with SIGTERM
// drains its queued jobs, and its drained notices are what hand them back to
// the router; once its listener is gone nothing else can, and the jobs would
// sit revoking at the router for good. The member used to be closed before
// the drain, and its Close dropped every notice still queued. Here s0 runs in
// manual mode, so five jobs the ring puts on s0 stay queued there; s0
// drains, closes its member and its listener, and all five must be
// reallocated to s1 and complete there.
func TestGracefulShardDrainReleasesItsJobs(t *testing.T) {
	f := startHTTPFederation(t, 2, func(i int, _ *service.Config) bool { return i == 0 })
	var ids []string
	for i := 0; len(ids) < 5; i++ {
		id := fmt.Sprintf("decommissioned-%d", i)
		if f.router.ring.Walk(id)[0] != "s0" {
			continue
		}
		if _, err := f.router.Submit(testJob(id, 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range ids {
		for {
			if rec, ok := f.svcs[0].Job(id); ok && rec.State == service.StateQueued {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached s0's queue", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.svcs[0].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	f.members[0].Close()
	f.servers[0].Close()

	waitQuiesced(t, f.router, 10*time.Second)
	for _, id := range ids {
		if v, _ := f.router.Job(id); v.State != service.StateCompleted || v.Shard != "s1" {
			t.Errorf("%s ended %+v; want completed on s1", id, v)
		}
	}
}
