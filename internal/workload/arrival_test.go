package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/jobio"
	"repro/internal/simtime"
)

var allKinds = []ProcessKind{ProcPoisson, ProcBursty, ProcDiurnal}

func TestParseProcess(t *testing.T) {
	for _, k := range allKinds {
		got, err := ParseProcess(k.String())
		if err != nil || got != k {
			t.Errorf("ParseProcess(%q) = %v, %v", k.String(), got, err)
		}
	}
	if got, err := ParseProcess(""); err != nil || got != ProcPoisson {
		t.Errorf("ParseProcess(\"\") = %v, %v; want poisson default", got, err)
	}
	if _, err := ParseProcess("weibull"); err == nil {
		t.Error("ParseProcess accepted an unknown process")
	}
}

func TestFlowWithPoissonMatchesFlow(t *testing.T) {
	// Flow is specified to be the Poisson case of FlowWith; the
	// differential and golden suites depend on its stream not shifting.
	g := New(Default(21))
	a := g.Flow(2, 40, 50)
	b := New(Default(21)).FlowWith(ArrivalSpec{Kind: ProcPoisson}, 2, 40, 50)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Job.Deadline != b[i].Job.Deadline {
			t.Fatalf("arrival %d differs: (%d,%d) vs (%d,%d)",
				i, a[i].At, a[i].Job.Deadline, b[i].At, b[i].Job.Deadline)
		}
	}
}

// TestFlowWithEmpiricalRate checks that every process hits its configured
// long-run rate: the mean inter-arrival time over a long flow must land
// within tolerance of Config.MeanInterarrival.
func TestFlowWithEmpiricalRate(t *testing.T) {
	const n = 4000
	cfg := Default(3)
	for _, k := range allKinds {
		g := New(cfg)
		flow := g.FlowWith(ArrivalSpec{Kind: k}, 0, n, 0)
		span := float64(flow[n-1].At - flow[0].At)
		mean := span / float64(n-1)
		// Bursty and diurnal have heavier inter-arrival variance than
		// Poisson; 15% over 4000 samples holds with margin for all three.
		if rel := mean/cfg.MeanInterarrival - 1; rel < -0.15 || rel > 0.15 {
			t.Errorf("%v: empirical mean inter-arrival %.2f, configured %.2f (%.1f%% off)",
				k, mean, cfg.MeanInterarrival, 100*rel)
		}
	}
}

// TestFlowWithProperties quick-checks the invariants shared by all three
// processes: same seed → byte-identical flows, monotone arrivals that
// never precede the start, and the deadline re-anchoring invariant
// (absolute deadline − arrival == the job's intrinsic relative deadline).
func TestFlowWithProperties(t *testing.T) {
	for _, k := range allKinds {
		k := k
		f := func(seed uint64, streamRaw uint8) bool {
			stream := int(streamRaw % 4)
			const n, start = 25, 100
			spec := ArrivalSpec{Kind: k}
			g := New(Default(seed))
			flow := g.FlowWith(spec, stream, n, start)
			again := New(Default(seed)).FlowWith(spec, stream, n, start)
			if len(flow) != n || len(again) != n {
				return false
			}
			last := simtime.Time(start)
			for i, a := range flow {
				// Determinism: identical times, deadlines and task params.
				b := again[i]
				if a.At != b.At || a.Job.Deadline != b.Job.Deadline || a.Job.NumTasks() != b.Job.NumTasks() {
					return false
				}
				for tid := 0; tid < a.Job.NumTasks(); tid++ {
					if a.Job.Task(dag.TaskID(tid)) != b.Job.Task(dag.TaskID(tid)) {
						return false
					}
				}
				// Monotone, never before start.
				if a.At < last {
					return false
				}
				last = a.At
				// Re-anchoring: the absolute deadline is arrival + the
				// relative deadline of the underlying generated job.
				rel := g.Job(stream*1_000_000 + i).Deadline
				if a.Job.Deadline != a.At+rel {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}

func TestFlowWithStreamsDecorrelated(t *testing.T) {
	for _, k := range allKinds {
		g := New(Default(17))
		a := g.FlowWith(ArrivalSpec{Kind: k}, 0, 20, 0)
		b := g.FlowWith(ArrivalSpec{Kind: k}, 1, 20, 0)
		same := true
		for i := range a {
			if a[i].At != b[i].At {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%v: streams 0 and 1 produced identical arrival times", k)
		}
	}
}

func TestArrivalSpecDefaults(t *testing.T) {
	sp := ArrivalSpec{Kind: ProcBursty}.withDefaults(10)
	if sp.OnMean != 50 || sp.OffMean != 50 || sp.Period != 400 || sp.Amplitude != 0.8 {
		t.Errorf("defaults = %+v", sp)
	}
	// Amplitude must stay below 1 for thinning to terminate.
	sp = ArrivalSpec{Kind: ProcDiurnal, Amplitude: 3}.withDefaults(10)
	if sp.Amplitude >= 1 {
		t.Errorf("amplitude not clamped: %v", sp.Amplitude)
	}
}

// TestFlowWithSameAtAnyWidth: a flow's jobs are built on the pool, and every
// process gives the same wire bytes, arrival ticks included, on one core and
// on four. Concurrent builders of one flow share the generator and the
// pooled job scratch, so under -race this is also their data-race guard.
func TestFlowWithSameAtAnyWidth(t *testing.T) {
	wire := func(flow []Arrival) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, a := range flow {
			if err := enc.Encode(jobio.FromJob(a.Job)); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%d\n", a.At)
		}
		return buf.Bytes()
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	g := New(Default(5))
	for _, k := range allKinds {
		var got [2][]byte
		for w, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			got[w] = wire(g.FlowWith(ArrivalSpec{Kind: k}, 3, 400, 10))
		}
		if !bytes.Equal(got[0], got[1]) {
			t.Errorf("%v: the flow built on 4 cores differs from the one built on 1", k)
		}
	}
}

// TestFlowWithBuildPanicReachesCaller: a job that cannot be built (here a
// job of no layers, so of no tasks) panics on FlowWith's caller, not on a
// pool goroutine, and the panic names the flow position and the cause.
func TestFlowWithBuildPanicReachesCaller(t *testing.T) {
	cfg := Default(1)
	cfg.MinLayers, cfg.MaxLayers = 0, 0
	defer func() {
		err, ok := recover().(error)
		if !ok {
			t.Fatalf("FlowWith did not panic with an error")
		}
		if msg := err.Error(); !strings.Contains(msg, "unit 0 panicked") || !strings.Contains(msg, "no tasks") {
			t.Fatalf("panic %q does not name the job and its cause", msg)
		}
	}()
	New(cfg).Flow(0, 8, 0)
}
