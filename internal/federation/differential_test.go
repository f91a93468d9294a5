package federation

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/jobio"
	"repro/internal/metasched"
	"repro/internal/service"
)

// The handoff differential suite: a server fed through the federation's
// shard-side path (frame encode, decode, validate, ApplyHandoff — what
// Member.handleHandoff runs) must be observationally identical to a plain
// service.Server fed by Submit — same submit outcomes, same ledger, same
// engine trace bytes, same metrics — over seeded mixed workloads. This is
// the pin that lets federation ship without perturbing the single-node
// paper results.

// diffOp is one scripted action against both deployments.
type diffOp struct {
	submit   *SubmitRequest
	process  int  // Process(n) on the engine when > 0
	quiesce  bool // run the engine dry
	resubmit int  // with resubmitOp: resubmit the i-th earlier job
	kind     string
}

const resubmitOp = "resubmit"

// diffWorkload generates a seeded mixed workload: feasible jobs across
// strategies and priorities, infeasible deadlines, invalid payloads,
// duplicate resubmissions, and interleaved engine progress.
func diffWorkload(seed int64, n int) []diffOp {
	r := rand.New(rand.NewSource(seed))
	strategies := []string{"S1", "S2", "S3"}
	var ops []diffOp
	for i := 0; i < n; i++ {
		switch k := r.Intn(10); {
		case k < 6: // feasible job
			ops = append(ops, diffOp{submit: &SubmitRequest{
				Job:      testJob(fmt.Sprintf("seed%d-job%d", seed, i), int64(10+r.Intn(90))),
				Strategy: strategies[r.Intn(len(strategies))],
				Priority: r.Intn(3),
			}})
		case k == 6: // infeasible deadline
			ops = append(ops, diffOp{submit: &SubmitRequest{
				Job:      testJob(fmt.Sprintf("seed%d-inf%d", seed, i), int64(1+r.Intn(3))),
				Strategy: "S1",
			}})
		case k == 7: // invalid strategy
			ops = append(ops, diffOp{submit: &SubmitRequest{
				Job:      testJob(fmt.Sprintf("seed%d-bad%d", seed, i), 60),
				Strategy: "NOPE",
			}})
		case k == 8: // duplicate of an earlier submission
			ops = append(ops, diffOp{kind: resubmitOp, resubmit: r.Intn(i + 1)})
		default: // let the engine make progress
			ops = append(ops, diffOp{process: 1 + r.Intn(4)})
		}
	}
	ops = append(ops, diffOp{quiesce: true})
	return ops
}

// serviceSeries scrapes a server's grid_service_* counters and gauges; the
// queue-wait histogram, which measures wall time, is left out.
func serviceSeries(t *testing.T, svc *service.Server) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for series, v := range scrape(t, svc.Handler()) {
		if strings.HasPrefix(series, "grid_service_") && !strings.HasPrefix(series, "grid_service_queue_wait_seconds") {
			out[series] = v
		}
	}
	return out
}

// diffDeployment is either side of the comparison behind one interface.
// submit reports the SubmitError code and reason (both "" on accept).
type diffDeployment struct {
	submit func(jobio.Job, string, int) (code, reason string)
	svc    *service.Server // the engine to drive
	trace  *bytes.Buffer
}

func newDiffServer(t *testing.T, seed uint64) (*service.Server, *bytes.Buffer) {
	t.Helper()
	var trace bytes.Buffer
	svc, err := service.New(service.Config{
		Env:   testEnv(),
		Sched: metasched.Config{Seed: seed, Tracer: metasched.NewJSONLTracer(&trace)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc, &trace
}

func newPlainDeployment(t *testing.T, seed uint64) *diffDeployment {
	t.Helper()
	svc, trace := newDiffServer(t, seed)
	return &diffDeployment{
		submit: func(w jobio.Job, s string, p int) (string, string) {
			_, err := svc.Submit(w, s, p)
			var se *service.SubmitError
			switch {
			case err == nil:
				return "", ""
			case errors.As(err, &se):
				return se.Code, se.Reason
			}
			return "other", err.Error()
		},
		svc: svc, trace: trace,
	}
}

func newHandoffDeployment(t *testing.T, seed uint64) *diffDeployment {
	t.Helper()
	svc, trace := newDiffServer(t, seed)
	shard := NewLocalShard("s0", svc)
	return &diffDeployment{
		submit: func(w jobio.Job, s string, p int) (string, string) {
			res, err := shard.Handoff(context.Background(), &Handoff{
				Key: w.Name, Job: w, Strategy: s, Priority: p})
			if err != nil {
				return "other", err.Error()
			}
			return res.Code, res.Reason
		},
		svc: svc, trace: trace,
	}
}

// sameOutcome compares two submit outcomes: the codes always, the reasons
// except on duplicates (a duplicate handoff answers with the existing
// record's state, not with Submit's refusal text).
func sameOutcome(pc, pr, fc, fr string) bool {
	return pc == fc && (pc == service.CodeDuplicate || pr == fr)
}

func TestSingleShardFederationIsByteIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plain := newPlainDeployment(t, uint64(seed))
			fed := newHandoffDeployment(t, uint64(seed))
			ops := diffWorkload(seed, 60)

			var submitted []SubmitRequest
			for i, op := range ops {
				switch {
				case op.submit != nil:
					submitted = append(submitted, *op.submit)
					pc, pr := plain.submit(op.submit.Job, op.submit.Strategy, op.submit.Priority)
					fc, fr := fed.submit(op.submit.Job, op.submit.Strategy, op.submit.Priority)
					if !sameOutcome(pc, pr, fc, fr) {
						t.Fatalf("op %d: submit outcome diverged:\nplain: %s|%s\nfed:   %s|%s", i, pc, pr, fc, fr)
					}
				case op.kind == resubmitOp:
					if op.resubmit >= len(submitted) {
						continue
					}
					req := submitted[op.resubmit]
					pc, pr := plain.submit(req.Job, req.Strategy, req.Priority)
					fc, fr := fed.submit(req.Job, req.Strategy, req.Priority)
					if !sameOutcome(pc, pr, fc, fr) {
						t.Fatalf("op %d: duplicate probe diverged:\nplain: %s|%s\nfed:   %s|%s", i, pc, pr, fc, fr)
					}
				case op.process > 0:
					pn := plain.svc.Process(op.process)
					fn := fed.svc.Process(op.process)
					if pn != fn {
						t.Fatalf("op %d: Process(%d) = %d vs %d", i, op.process, pn, fn)
					}
				case op.quiesce:
					plain.svc.Quiesce()
					fed.svc.Quiesce()
				}
			}

			// Job fates: the full ledgers must match record for record.
			pj, fj := plain.svc.Jobs(), fed.svc.Jobs()
			if len(pj) != len(fj) {
				t.Fatalf("ledger sizes diverged: %d vs %d", len(pj), len(fj))
			}
			for i := range pj {
				if pj[i] != fj[i] {
					t.Fatalf("record %d diverged:\nplain: %+v\nfed:   %+v", i, pj[i], fj[i])
				}
			}

			// Traces: the engine event stream must be byte-identical.
			if !bytes.Equal(plain.trace.Bytes(), fed.trace.Bytes()) {
				t.Fatalf("trace bytes diverged (%d vs %d bytes)",
					plain.trace.Len(), fed.trace.Len())
			}

			// Reports: every grid_service_* counter and gauge must agree.
			if pm, fm := serviceSeries(t, plain.svc), serviceSeries(t, fed.svc); !reflect.DeepEqual(pm, fm) {
				t.Fatalf("metrics diverged:\nplain: %v\nfed:   %v", pm, fm)
			}
		})
	}
}

// TestSyncRouterMirrorsShardFates checks the router's own ledger stays in
// sync with its shard: every accepted job's router fate is the shard fate.
func TestSyncRouterMirrorsShardFates(t *testing.T) {
	var rt *Router
	svc, err := service.New(service.Config{
		Env:   testEnv(),
		Sched: metasched.Config{Seed: 42},
		OnTerminal: func(rec service.Record) {
			rt.HandleTerminal(&TerminalNotice{Shard: "s0", Job: rec.ID, State: rec.State, Reason: rec.Reason})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Shards: []ShardClient{NewLocalShard("s0", svc)}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rt = r
	r.Start()
	defer r.Close()
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := r.Submit(testJob(fmt.Sprintf("job-%d", i), 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	// The shard's engine is not started, so handed-off jobs sit in its
	// queue until every handoff has landed and the test runs them.
	deadline := time.Now().Add(10 * time.Second)
	for len(svc.Jobs()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs handed off", len(svc.Jobs()), n)
		}
		time.Sleep(time.Millisecond)
	}
	svc.Process(-1)
	svc.Quiesce()
	for _, view := range r.Jobs() {
		srec, ok := svc.Job(view.ID)
		if !ok {
			t.Fatalf("router job %s missing from shard", view.ID)
		}
		if view.State != srec.State {
			t.Fatalf("job %s: router %q vs shard %q", view.ID, view.State, srec.State)
		}
	}
}
