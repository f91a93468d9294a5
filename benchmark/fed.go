package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/dag"
	"repro/internal/federation"
	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// fed_durable runs the whole federated path in one process over loopback:
// a journaled router in front of two journaled shard daemons, wired with
// the member glue exactly as cmd/gridd and cmd/gridfront wire them, at
// those daemons' flag defaults.
const (
	fedShards     = 2
	fedQueueCap   = 256
	fedRate       = 100 // jobs/s offered by the one open-loop client
	fedJournalSeg = 4 << 20
	fedCompact    = 256
	// fedSetupRounds is how many times a repeat sets up.
	fedSetupRounds = 3
)

// Tracers of the traced pass: the router (and the driver's client) write to
// tracer 0, shard i to tracer 1+i.
const fedTracers = 1 + fedShards

func journalOptions(dir string, reg *telemetry.Registry) journal.Options {
	return journal.Options{
		Dir: dir, Fsync: journal.FsyncAlways, SegmentBytes: fedJournalSeg,
		CompactEvery: fedCompact, IsTerminal: service.Terminal, Telemetry: reg,
	}
}

// shardProc is one gridd-equivalent: journal, service daemon, member glue
// and its HTTP listener.
type shardProc struct {
	name   string
	dir    string
	env    *resource.Environment
	reg    *telemetry.Registry
	jnl    *journal.Journal
	svc    *service.Server
	member *federation.Member
	ts     *httptest.Server

	terminal map[string]int // OnTerminal tally; written under the service's lock
}

// fleet is the router plus its shards.
type fleet struct {
	shards    []*shardProc
	dir       string // router journal
	reg       *telemetry.Registry
	jnl       *journal.Journal
	router    *federation.Router
	rts       *httptest.Server
	transport *http.Transport // router → shards
	wire      atomic.Int64    // bytes through wrapped handlers (traced pass)
}

// newFleet builds and starts everything under dir. tr is nil on untraced
// passes; shardHook receives every VO event of every shard, on that
// shard's engine goroutine.
func newFleet(dir string, seed uint64, tr *tracing, shardHook func(shard int, e metasched.Event)) (*fleet, error) {
	f := &fleet{dir: filepath.Join(dir, "router"), reg: telemetry.NewRegistry()}
	// The members need the router's URL before the router exists.
	var routerHandler atomic.Pointer[http.Handler]
	notYet := http.NotFoundHandler()
	routerHandler.Store(&notYet)
	f.rts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*routerHandler.Load()).ServeHTTP(w, r)
	}))

	f.transport = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = f.transport
	if tr != nil {
		rt = &spanTransport{tr: tr.at(0), next: rt}
	}
	// gridfront's client: the RPC budget plus a second.
	client := &http.Client{Timeout: 3 * time.Second, Transport: rt}

	clients := make([]federation.ShardClient, fedShards)
	for i := 0; i < fedShards; i++ {
		i := i
		s := &shardProc{
			name: fmt.Sprintf("s%d", i), dir: filepath.Join(dir, fmt.Sprintf("s%d", i)),
			env: newEnv(), reg: telemetry.NewRegistry(), terminal: map[string]int{},
		}
		var err error
		if s.jnl, _, err = journal.Open(journalOptions(s.dir, s.reg)); err != nil {
			return nil, err
		}
		s.member = federation.NewMember(federation.MemberConfig{
			Shard: s.name, Router: f.rts.URL, Seed: seed + 3, Telemetry: s.reg,
		})
		s.svc, err = service.New(service.Config{
			Env:           s.env,
			QueueCap:      fedQueueCap,
			BuildTimeout:  30 * time.Second,
			SnapshotPath:  filepath.Join(dir, s.name+"-drained.json"),
			Telemetry:     s.reg,
			Journal:       s.jnl,
			HoldRecovered: true,
			Breaker:       &breaker.Config{Threshold: 5, JitterFrac: 0.2, Seed: seed + 2},
			Sched: metasched.Config{
				Seed: seed, Placers: svcPlacers, Spans: tr.at(1 + i),
				Tracer: metasched.TracerFunc(func(e metasched.Event) { shardHook(i, e) }),
			},
			OnTerminal: func(r service.Record) {
				s.terminal[r.ID]++
				s.member.Terminal(r)
			},
		})
		if err != nil {
			return nil, err
		}
		s.svc.Start()
		s.member.Bind(s.svc)
		h := s.member.Handler(s.svc.Handler())
		if tr != nil {
			h = &spanHandler{tr: tr.at(1 + i), next: h, wire: &f.wire, names: map[string]string{
				"/v1/federation/handoff": "federation.member_handoff",
			}}
		}
		s.ts = httptest.NewServer(h)
		f.shards = append(f.shards, s)
		clients[i] = federation.NewHTTPShard(s.name, s.ts.URL, client)
	}

	var err error
	if f.jnl, _, err = journal.Open(journalOptions(f.dir, f.reg)); err != nil {
		return nil, err
	}
	f.router, err = federation.New(federation.Config{
		Shards: clients, Journal: f.jnl, Telemetry: f.reg, Seed: seed,
		Breaker: breaker.Config{Threshold: 5, JitterFrac: 0.2, Seed: seed + 2},
	})
	if err != nil {
		return nil, err
	}
	f.router.Start()
	h := f.router.Handler()
	if tr != nil {
		h = &spanHandler{tr: tr.at(0), next: h, wire: &f.wire, names: map[string]string{
			"/v1/jobs":                "federation.submit",
			"/v1/federation/terminal": "federation.terminal_notice",
		}}
	}
	routerHandler.Store(&h)
	// The members start only now that the router answers: a join or a
	// notice that fails once sends Member through its backoff sleep, whose
	// helper goroutine stays parked on the member's condition variable and
	// can swallow the wake-up of a later terminal notice.
	for _, s := range f.shards {
		s.member.Start()
	}
	return f, nil
}

// quiesce waits until every job the router accepted is terminal there.
func (f *fleet) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !f.router.Quiesced() {
		if time.Now().After(deadline) {
			m := f.router.Metrics()
			return fmt.Errorf("router not quiesced after %s: accepted=%d completed=%d rejected=%d", timeout, m.Accepted, m.Completed, m.Rejected)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close drains the shards and the router and stops every listener and
// goroutine the fleet started. It returns the shards' total Drain time.
func (f *fleet) close() (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	var drain time.Duration
	for _, s := range f.shards {
		s.member.Close()
		t0 := time.Now()
		keep(s.svc.Drain(ctx))
		drain += time.Since(t0)
	}
	keep(f.router.Drain(ctx))
	f.rts.Close()
	for _, s := range f.shards {
		s.ts.Close()
		keep(s.jnl.Close())
	}
	keep(f.jnl.Close())
	f.transport.CloseIdleConnections()
	return drain, first
}

// spanHandler wraps an http.Handler: requests whose path is in names get
// a span of that name on tr, and every request's body bytes, in and out,
// are added to wire.
type spanHandler struct {
	tr    *telemetry.Tracer
	next  http.Handler
	names map[string]string
	wire  *atomic.Int64
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var sp *telemetry.Span
	if name, ok := h.names[r.URL.Path]; ok && r.Method == http.MethodPost {
		sp = h.tr.Start(name, 0)
	}
	if r.ContentLength > 0 {
		h.wire.Add(r.ContentLength)
	}
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	h.wire.Add(cw.n)
	sp.End()
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// spanTransport times the router's handoff round trips from the client
// side, body read included.
type spanTransport struct {
	tr   *telemetry.Tracer
	next http.RoundTripper
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(r.URL.Path, "/handoff") {
		return t.next.RoundTrip(r)
	}
	sp := t.tr.Start("federation.handoff", 0)
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		sp.End()
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	sp *telemetry.Span
}

func (b *spanBody) Close() error {
	b.sp.End()
	return b.ReadCloser.Close()
}

// fedCorpus is the light corpus in wire form with the request bodies the
// client posts.
func fedCorpus(seed uint64, n int) (wires []jobio.Job, byName map[string]*dag.Job, bodies [][]byte, err error) {
	wires, byName = svcCorpusFor(lightCorpus(seed), n)
	bodies = make([][]byte, len(wires))
	for i, w := range wires {
		bodies[i], err = json.Marshal(federation.SubmitRequest{
			Job: w, Strategy: strategyCycle[i%len(strategyCycle)], Priority: i % priorityLevels,
		})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return wires, byName, bodies, nil
}

// post sends one submission and reports the HTTP status.
func post(client *http.Client, url string, body []byte) (int, error) {
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	resp.Body.Close()
	return resp.StatusCode, nil
}

func runFedDurable(rc *runCtx) (*repeatResult, error) {
	res := newResult(rc)
	client := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	defer client.CloseIdleConnections()

	dec := newDecisions(rc.jobs)
	probes := make([]*calendarProbe, fedShards)
	hook := func(shard int, e metasched.Event) {
		dec.onEvent(e)
		if probes[shard] != nil {
			probes[shard].onEvent(e)
		}
	}
	// A repeat takes ten seconds, so a run has few of them and each sets
	// up several times: the warm-up is 200 closed-loop posts waiting on
	// fsyncs, and a single reading of it is off by half when the disk or a
	// cold first round stalls. setup_s is the median round; the last
	// round's fleet serves the run.
	var (
		wires  []jobio.Job
		byName map[string]*dag.Job
		bodies [][]byte
		f      *fleet
		rounds []float64
	)
	for r := 0; r < fedSetupRounds; r++ {
		if f != nil {
			if _, err := f.close(); err != nil {
				return nil, err
			}
		}
		setup := time.Now()
		var err error
		if wires, byName, bodies, err = fedCorpus(rc.seed, rc.jobs); err != nil {
			return nil, err
		}
		if err := warmFed(filepath.Join(rc.workDir, fmt.Sprintf("warm%d", r)), client); err != nil {
			return nil, err
		}
		if f, err = newFleet(filepath.Join(rc.workDir, fmt.Sprintf("fleet%d", r)), rc.seed, rc.tr, hook); err != nil {
			return nil, err
		}
		runtime.GC()
		rounds = append(rounds, time.Since(setup).Seconds())
	}
	if rc.tr != nil {
		for i, s := range f.shards {
			probes[i] = newCalendarProbe(rc.tr.at(1+i), s.env, byName)
		}
	}
	res.setP50("setup_s", rounds)

	// Open loop: job i is due at start + i/rate whatever happened to the
	// jobs before it, and every latency counts from that instant.
	tr := rc.tr.at(0)
	interval := time.Second / fedRate
	m := startMeter()
	rc.tr.startRoot()
	root := rc.tr.rootID()
	start := time.Now().Add(interval)
	for i, w := range wires {
		dec.due[w.Name] = start.Add(time.Duration(i) * interval)
	}
	accepted := make(map[string]bool, len(wires))
	var ackMs, lateMs []float64
	refused, backlogMid := 0, 0
	for i, w := range wires {
		due := dec.due[w.Name]
		time.Sleep(time.Until(due))
		lateMs = append(lateMs, float64(time.Since(due).Nanoseconds())/1e6)
		sp := tr.Start("driver.http_post", root)
		status, err := post(client, f.rts.URL, bodies[i])
		sp.End()
		ackMs = append(ackMs, float64(time.Since(due).Nanoseconds())/1e6)
		switch {
		case err != nil:
			res.fail("post %s: %v", w.Name, err)
		case status == http.StatusAccepted:
			accepted[w.Name] = true
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable || status == http.StatusUnprocessableEntity:
			refused++
		default:
			res.fail("post %s: unexpected status %d", w.Name, status)
		}
		if i == len(wires)/2 {
			backlogMid = f.backlog()
		}
	}
	backlogEnd := f.backlog()
	if err := f.quiesce(60 * time.Second); err != nil {
		res.fail("%v", err)
	}
	rc.tr.endRoot()
	m.stop(res)

	// Sending at half of what one closed-loop client reaches must not
	// leave a backlog that was still growing when sending ended. The slack
	// keeps a smoke run beside other test binaries from tripping it.
	if backlogEnd > 2*backlogMid+max(rc.jobs/20, 25) {
		res.fail("open loop: backlog grew from %d at half-way to %d when sending ended", backlogMid, backlogEnd)
	}

	// The restore phase reads what this run wrote: copy the journals while
	// the daemons are idle but before Drain compacts them.
	copies := make([]string, 0, fedTracers)
	for _, dir := range append([]string{f.dir}, f.shardDirs()...) {
		dst := filepath.Join(rc.workDir, "copy-"+filepath.Base(dir))
		if err := copyDir(dir, dst); err != nil {
			return nil, err
		}
		copies = append(copies, dst)
	}
	rm := f.router.Metrics()
	drain, err := f.close()
	if err != nil {
		res.fail("close: %v", err)
	}

	res.setLatencies(ackMs, dec.ms())
	res.setP50("driver.late_p50_ms", lateMs)
	res.Metrics["driver.late_max_ms"] = percentile(lateMs, 1)
	res.Metrics["driver.backlog_end"] = float64(backlogEnd)
	res.Metrics["driver.refused_ratio"] = float64(refused) / float64(rc.jobs)
	res.Metrics["service.drain_ms"] = float64(drain.Nanoseconds()) / 1e6
	res.Metrics["federation.wire_kb_per_job"] = float64(f.wire.Load()) / 1024 / float64(rc.jobs)

	merged := telemetry.NewRegistry()
	merged.Merge(f.reg)
	var results []*metasched.JobResult
	var events uint64
	for _, s := range f.shards {
		merged.Merge(s.reg)
		results = append(results, s.svc.Results()...)
		events += s.svc.Metrics().EventsFired
		auditCalendars(s.env, res)
		auditResults(s.env, s.svc.Results(), res)
	}
	res.Metrics["sim.events_per_job"] = float64(events) / float64(rc.jobs)
	fillQoS(res, results)
	c, err := fillCounters(res, merged)
	if err != nil {
		return nil, err
	}
	jobs := float64(rc.jobs)
	res.Metrics["federation.hops_per_job"] = c["grid_fed_handoffs_total"] / jobs
	res.Metrics["federation.handoff_retries_per_job"] = c["grid_fed_handoff_retries_total"] / jobs
	res.Metrics["federation.reallocations_per_job"] = c["grid_fed_reallocations_total"] / jobs
	if rc.tr != nil {
		fillProbes(res, probes...)
	}

	// Ledger audit: every accepted job terminal on exactly one shard, once,
	// and the router's books balanced.
	if rm.Completed+rm.Rejected != rm.Accepted || rm.Accepted != uint64(len(accepted)) {
		res.fail("audit: router accepted=%d (client saw %d) completed=%d rejected=%d", rm.Accepted, len(accepted), rm.Completed, rm.Rejected)
	}
	for id := range accepted {
		owners := 0
		for _, s := range f.shards {
			r, ok := s.svc.Job(id)
			if !ok || r.State == service.StateRevoked {
				continue
			}
			owners++
			if !service.Terminal(r.State) || s.terminal[id] != 1 {
				res.fail("audit: job %s on %s is %s with %d terminal notices", id, s.name, r.State, s.terminal[id])
			}
		}
		if owners != 1 {
			res.fail("audit: accepted job %s is ledgered on %d shards", id, owners)
		}
	}

	if rc.tr != nil {
		if err := fedProbes(rc.workDir, copies, wires, res); err != nil {
			return nil, err
		}
	}
	if err := restorePhase(copies, accepted, res); err != nil {
		return nil, err
	}
	return res, nil
}

// backlog is how many accepted jobs are not yet terminal at the router.
func (f *fleet) backlog() int {
	m := f.router.Metrics()
	return int(m.Accepted) - int(m.Completed) - int(m.Rejected) - int(m.Drained)
}

func (f *fleet) shardDirs() []string {
	dirs := make([]string, len(f.shards))
	for i, s := range f.shards {
		dirs[i] = s.dir
	}
	return dirs
}

// warmFed pushes warmupJobs through a throwaway fleet, closed loop.
func warmFed(dir string, client *http.Client) error {
	_, _, bodies, err := fedCorpus(envSeed, warmupJobs)
	if err != nil {
		return err
	}
	f, err := newFleet(dir, envSeed, nil, func(int, metasched.Event) {})
	if err != nil {
		return err
	}
	for _, b := range bodies {
		if _, err := post(client, f.rts.URL, b); err != nil {
			break
		}
	}
	qerr := f.quiesce(60 * time.Second)
	if _, err := f.close(); err != nil {
		return err
	}
	return qerr
}

// restorePhase reopens the copied journals on fresh servers, the way the
// daemons start up, and times journal.Open + Restore of all three. After
// it every accepted job must be ledgered terminal and none requeued.
// copies[0] is the router's journal, the rest are the shards'.
func restorePhase(copies []string, accepted map[string]bool, res *repeatResult) error {
	total, err := restoreRouter(copies[0], accepted, res)
	if err != nil {
		return err
	}
	terminalOn := map[string]int{}
	var shards time.Duration
	for _, dir := range copies[1:] {
		d, err := restoreShard(dir, terminalOn, res)
		if err != nil {
			return err
		}
		shards += d
	}
	for id := range accepted {
		if terminalOn[id] != 1 {
			res.fail("restore: accepted job %s is terminal on %d restored shards", id, terminalOn[id])
		}
	}
	if kjobs := float64(len(accepted)) / 1000; kjobs > 0 {
		res.Metrics["driver.recovery_ms_per_kjob"] = float64((total + shards).Nanoseconds()) / 1e6 / kjobs
		res.Metrics["service.restore_ms_per_kjob"] = float64(shards.Nanoseconds()) / 1e6 / kjobs
	}
	return nil
}

// restoreRouter times journal.Open + federation.New + Restore on dir.
func restoreRouter(dir string, accepted map[string]bool, res *repeatResult) (took time.Duration, err error) {
	t0 := time.Now()
	jnl, rec, err := journal.Open(journalOptions(dir, nil))
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := jnl.Close(); err == nil {
			err = cerr
		}
	}()
	clients := make([]federation.ShardClient, fedShards)
	for k := range clients {
		// Never dialled: a quiesced ledger has nothing to reconcile.
		clients[k] = federation.NewHTTPShard(fmt.Sprintf("s%d", k), "http://127.0.0.1:0", nil)
	}
	router, err := federation.New(federation.Config{Shards: clients, Journal: jnl})
	if err != nil {
		return 0, err
	}
	defer router.Close()
	if _, err := router.Restore(rec); err != nil {
		return 0, err
	}
	took = time.Since(t0)
	views := router.Jobs()
	for _, v := range views {
		if accepted[v.ID] && !service.Terminal(v.State) {
			res.fail("restore: router holds %s as %s", v.ID, v.State)
		}
	}
	if len(views) < len(accepted) {
		res.fail("restore: router remembers %d of %d accepted jobs", len(views), len(accepted))
	}
	return took, nil
}

// restoreShard times journal.Open + service.New + Restore on dir and
// counts, per job, the restored ledgers that hold it terminal.
func restoreShard(dir string, terminalOn map[string]int, res *repeatResult) (took time.Duration, err error) {
	t0 := time.Now()
	jnl, rec, err := journal.Open(journalOptions(dir, nil))
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := jnl.Close(); err == nil {
			err = cerr
		}
	}()
	srv, err := service.New(service.Config{Env: newEnv(), QueueCap: fedQueueCap, Journal: jnl, HoldRecovered: true})
	if err != nil {
		return 0, err
	}
	stats, err := srv.Restore(rec)
	if err != nil {
		return 0, err
	}
	took = time.Since(t0)
	if stats.Requeued+stats.Held+stats.Invalid != 0 {
		res.fail("restore: %s requeued=%d held=%d invalid=%d", filepath.Base(dir), stats.Requeued, stats.Held, stats.Invalid)
	}
	for _, r := range srv.Jobs() {
		if r.State != service.StateRevoked && service.Terminal(r.State) {
			terminalOn[r.ID]++
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return took, srv.Drain(ctx)
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
