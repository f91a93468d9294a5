package experiments

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/criticalworks"
	"repro/internal/metasched"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "regenerate the golden files under testdata/")

// compareGolden checks got against the named golden file byte for byte;
// with -update it regenerates the file instead.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/experiments -run 'Golden' -update` to create it): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Report the first differing line so the mismatch is readable.
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s differs at line %d:\n  got:  %s\n  want: %s\n(%d vs %d bytes total; -update regenerates)",
				path, i+1, g, w, len(got), len(want))
		}
	}
	t.Fatalf("%s differs (%d vs %d bytes)", path, len(got), len(want))
}

// fig2TraceRun replays the §3 worked example through the full VO
// hierarchy with a JSONL tracer attached and returns the trace bytes.
// The deadline is relaxed to 24 as in fig2, so the strategy holds more
// than one admissible supporting schedule.
func fig2TraceRun() ([]byte, error) {
	var trace bytes.Buffer
	engine := sim.New()
	env := Fig2Env()
	vo := metasched.NewVO(engine, env, metasched.Config{
		Objective: criticalworks.MinCost,
		Seed:      1,
		Tracer:    metasched.NewJSONLTracer(&trace),
	})
	vo.Submit(Fig2Job().WithDeadline(24), strategy.S2, 0)
	engine.Run()
	results := vo.Results()
	if len(results) != 1 {
		return nil, fmt.Errorf("fig2 VO run produced %d results, want 1", len(results))
	}
	if results[0].State != metasched.StateCompleted {
		return nil, fmt.Errorf("fig2 VO run ended in state %v, want completed", results[0].State)
	}
	return trace.Bytes(), nil
}

// fig2Outputs is one run of the worked example: the printed report and
// the VO trace.
type fig2Outputs struct{ report, trace []byte }

// TestFig2Golden pins the §3 worked example byte for byte: the printed
// Distribution table and the full JSONL event trace of a VO run over the
// same job. Any change to the scheduling pipeline that moves a single
// reservation, collision, or trace field shows up here as a one-line
// diff. Regenerate with -update after intentional changes.
//
// Each subtest runs the example on that many concurrent copies through
// the experiment-cell pool; every copy must match the same goldens, so
// the example's output does not depend on what else runs beside it.
func TestFig2Golden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			runs, err := workload.MapIndexed(workers, workers, func(int) (fig2Outputs, error) {
				r, err := fig2(Config{})
				if err != nil {
					return fig2Outputs{}, err
				}
				var report bytes.Buffer
				if _, err := r.WriteTo(&report); err != nil {
					return fig2Outputs{}, err
				}
				trace, err := fig2TraceRun()
				return fig2Outputs{report.Bytes(), trace}, err
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range runs {
				compareGolden(t, "fig2_report.golden", run.report)
				compareGolden(t, "fig2_trace.golden", run.trace)
			}
		})
	}
}

// goldenJobs is the corpus size of the experiment goldens: big enough that
// every table has rows worth reading, small enough that the twelve runs take
// about a second.
const goldenJobs = 30

// TestExperimentGoldens pins every report gridsim prints, byte for byte: each
// row of Experiments, run the way gridsim runs it, at seed 3 on goldenJobs
// jobs. A moved cell fails its experiment's subtest at the first differing
// line. Regenerate with -update after intentional changes.
func TestExperimentGoldens(t *testing.T) {
	cfg := DefaultConfig(3, goldenJobs)
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			r, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var report bytes.Buffer
			if _, err := r.WriteTo(&report); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, e.ID+"_report.golden", report.Bytes())
			checkClaims(t, r)
		})
	}
}

// TestExperimentDigestsAtScale pins gridsim's whole stdout at two corpus
// sizes the goldens' 30 jobs never reach: every row's report followed by a
// newline, the way gridsim prints -exp all, hashed with MD5. At 1000 jobs
// the fig4 and availability caps bind, so a cap that moved or fell off
// changes the digest. The digests were recorded from gridsim's output.
func TestExperimentDigestsAtScale(t *testing.T) {
	if raceEnabled {
		t.Skip("seconds of corpus runs; the race detector makes them minutes (CI's coverage job runs this without it)")
	}
	wide := DefaultConfig(1, 1000)
	wide.Workers = 2
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"seed3-jobs200", DefaultConfig(3, 200), "5a624be1b7d909be4fd86e6697fac7a8"},
		{"seed1-jobs1000-workers2", wide, "ec38f42ba074b3de9e799c31c03b0daa"},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := md5.New()
			for _, e := range Experiments {
				r, err := e.Run(c.cfg)
				if err != nil {
					t.Fatalf("%s: %v", e.ID, err)
				}
				if _, err := r.WriteTo(h); err != nil {
					t.Fatal(err)
				}
				h.Write([]byte("\n"))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("MD5 of every report = %s, want %s", got, c.want)
			}
		})
	}
}
