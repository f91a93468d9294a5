package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The differential equivalence suite: every experiment that fans out
// across the worker pool must produce byte-identical reports, identical
// raw value maps, and byte-identical traces at any worker count. Each
// case runs once on a pool of one worker and once wide (workers=8,
// oversubscribed on small machines on purpose), across several seeds.
// Fig. 2 has neither a seed nor a worker count: each of its rows runs it
// once, against its golden report, so a regression still shows up in every
// row.

// diffOutcome captures everything an experiment emits.
type diffOutcome struct {
	report []byte
	values map[string]float64
	trace  []byte
}

func capture(t *testing.T, r *Report, err error, trace *bytes.Buffer) diffOutcome {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := diffOutcome{report: buf.Bytes(), values: r.Values}
	if trace != nil {
		out.trace = trace.Bytes()
	}
	return out
}

func TestParallelMatchesSequential(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8}
	if testing.Short() {
		seeds = seeds[:2]
	}

	cases := []struct {
		name string
		run  func(t *testing.T, seed uint64, workers int) diffOutcome
	}{
		{"fig3a", func(t *testing.T, seed uint64, workers int) diffOutcome {
			cfg := Config{Seed: seed, Jobs: 40, Workers: workers}
			r, err := fig3a(cfg)
			return capture(t, r, err, nil)
		}},
		{"fig3b", func(t *testing.T, seed uint64, workers int) diffOutcome {
			cfg := Config{Seed: seed, Jobs: 40, Workers: workers}
			r, err := fig3b(cfg)
			return capture(t, r, err, nil)
		}},
		{"fig4", func(t *testing.T, seed uint64, workers int) diffOutcome {
			var trace bytes.Buffer
			cfg := Config{Seed: seed, Jobs: 25, Workers: workers, Trace: &trace}
			r, err := fig4a(cfg)
			return capture(t, r, err, &trace)
		}},
		{"availability", func(t *testing.T, seed uint64, workers int) diffOutcome {
			var trace bytes.Buffer
			cfg := DefaultConfig(seed, 12)
			cfg.Levels = []float64{1.0, 0.9}
			cfg.Workers = workers
			cfg.Trace = &trace
			r, err := availability(cfg)
			return capture(t, r, err, &trace)
		}},
	}

	for _, seed := range seeds {
		t.Run(fmt.Sprintf("fig2/seed%d", seed), func(t *testing.T) {
			r, err := fig2(Config{})
			compareGolden(t, "fig2_report.golden", capture(t, r, err, nil).report)
		})
	}
	for _, tc := range cases {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				t.Parallel()
				seq := tc.run(t, seed, 1)
				par := tc.run(t, seed, 8)
				if !bytes.Equal(seq.report, par.report) {
					t.Errorf("report bytes differ between workers=1 and workers=8\nsequential:\n%s\nparallel:\n%s",
						seq.report, par.report)
				}
				if !reflect.DeepEqual(seq.values, par.values) {
					t.Errorf("raw values differ between workers=1 and workers=8:\nsequential: %v\nparallel:   %v",
						seq.values, par.values)
				}
				if !bytes.Equal(seq.trace, par.trace) {
					t.Errorf("trace bytes differ between workers=1 and workers=8 (%d vs %d bytes)",
						len(seq.trace), len(par.trace))
				}
			})
		}
	}
}

// TestFig3ParallelBeatsSequential requires the worker pool to run Fig.
// 3(a)'s units side by side: while the corpus runs at Workers 2, some dump
// of every goroutine's stack must show two goroutines inside a unit (the
// plan runFig3 hands mapCorpus) at once. The test runs on three Ps, one
// for the sampler beside the two workers, and a dump shows a goroutine's
// frames whether or not the host is running its thread, so a loaded host
// cannot hide the overlap, as it hid the speed-up of Workers 2 over
// Workers 1 that this test used to time. Like that ratio, the witness
// fails when the units run one at a time: on a pool of one, or behind a
// lock around each unit.
func TestFig3ParallelBeatsSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	const unit = "experiments.runFig3.func1("
	buf := make([]byte, 1<<20)
	most := 0
	for run := 0; run < 5 && most < 2; run++ {
		done := make(chan error, 1)
		go func() {
			_, err := fig3a(Config{Seed: 1, Jobs: 60, Workers: 2})
			done <- err
		}()
		for finished := false; !finished; {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				finished = true
				continue
			default:
			}
			n := runtime.Stack(buf, true)
			in := 0
			for _, g := range strings.Split(string(buf[:n]), "\n\n") {
				if strings.Contains(g, unit) {
					in++
				}
			}
			most = max(most, in)
			time.Sleep(50 * time.Microsecond)
		}
	}
	if most < 2 {
		t.Errorf("Fig. 3(a) at Workers 2 never had two units in flight at once (at most %d)", most)
	}
}
