package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/metasched"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// newTestFront starts a router over two engine-loop shards, each behind
// httptest with the member glue, and returns the router, its registry and
// its URL; everything stops when the test ends.
func newTestFront(t *testing.T) (*federation.Router, *telemetry.Registry, string) {
	t.Helper()
	// The members need the router's URL before the router exists: its
	// listener is bound now and served once the router is built.
	rts := httptest.NewUnstartedServer(nil)
	t.Cleanup(rts.Close)
	routerURL := "http://" + rts.Listener.Addr().String()

	var fleet []federation.ShardClient
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("s%d", i)
		member := federation.NewMember(federation.MemberConfig{Shard: name, Router: routerURL, Seed: uint64(i) + 1})
		svc, err := service.New(service.Config{
			Env:        workload.New(workload.Default(7)).Environment(2), // a shard's own calendars
			QueueCap:   64,
			Telemetry:  telemetry.NewRegistry(),
			Sched:      metasched.Config{Seed: uint64(i) + 7},
			OnTerminal: member.Terminal,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc.Start()
		member.Bind(svc)
		member.Start()
		ts := httptest.NewServer(member.Handler(svc.Handler()))
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			member.Close()
			svc.Drain(ctx)
			ts.Close()
		})
		fleet = append(fleet, federation.NewHTTPShard(name, ts.URL, &http.Client{Timeout: 2 * time.Second}))
	}

	reg := telemetry.NewRegistry()
	r, err := federation.New(federation.Config{Shards: fleet, Seed: 21, Telemetry: reg,
		HeartbeatInterval: 50 * time.Millisecond, RetryBase: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rts.Config.Handler = r.Handler()
	rts.Start()
	r.Start()
	t.Cleanup(r.Close)
	return r, reg, rts.URL
}

// TestHTTPModeAgainstFront drives a gridfront target: the router keeps no
// grid_service_* series, so the report's counts are its grid_fed_* counters
// over the run — a fresh router's values — the counters only a shard keeps
// stay zero, and the terminal states are the router ledger's.
func TestHTTPModeAgainstFront(t *testing.T) {
	r, reg, url := newTestFront(t)
	rep, err := run(testOptions(url))
	if err != nil {
		t.Fatal(err)
	}
	fed := func(stem string) uint64 { return reg.Counter("grid_fed_"+stem+"_total", "").Value() }
	c := rep.Counts
	for _, f := range []struct {
		name      string
		got, want uint64
	}{
		{"submitted", c.Submitted, fed("submitted")},
		{"accepted", c.Accepted, fed("accepted")},
		{"completed", c.Completed, fed("completed")},
		{"rejected", c.Rejected, fed("rejected")},
		{"drained", c.Drained, fed("drained")},
		{"shed", c.Shed, 0},
		{"infeasible", c.Infeasible, 0},
		{"overloaded", c.Overloaded, 0},
	} {
		if f.got != f.want {
			t.Errorf("report %s = %d, want %d", f.name, f.got, f.want)
		}
	}
	if c.Submitted != 40 || uint64(c.ClientAccepted) != c.Accepted || c.Completed == 0 {
		t.Errorf("counts = %+v, want 40 submitted, the client's accepts and some completions", c)
	}
	if c.QueueHighWater != 0 || c.EngineTicks != 0 {
		t.Errorf("queue high water %d, engine ticks %d: a router has neither", c.QueueHighWater, c.EngineTicks)
	}
	ledger := map[string]uint64{}
	for _, v := range r.Jobs() {
		ledger[v.State]++
	}
	if !reflect.DeepEqual(c.TerminalByState, ledger) {
		t.Errorf("terminal states %v, router ledger %v", c.TerminalByState, ledger)
	}
}
