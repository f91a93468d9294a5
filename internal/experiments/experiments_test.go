package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestFig2ReproducesPaperStructure(t *testing.T) {
	r, err := fig2(Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, r)
}

func TestFig3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	cfg := Config{Seed: 1, Jobs: 200}
	for _, run := range []func(Config) (*Report, error){fig3a, fig3b} {
		r, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkClaims(t, r)
	}
}

func TestFig3Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	cfg := Config{Seed: 7, Jobs: 60}
	a1, err := fig3a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := fig3a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a1.Values {
		if a2.Values[k] != v {
			t.Errorf("value %q differs across identical runs: %v vs %v", k, v, a2.Values[k])
		}
	}
}

// TestFig3abRunCorpusOnce: Fig. 3(a) and Fig. 3(b) read the same corpus
// pass, and rows run from one DefaultConfig, as gridsim runs them, run it
// once.
func TestFig3abRunCorpusOnce(t *testing.T) {
	checkRunsOnce(t, "fig3b", fig3a, fig3b)
}

// TestFig4bcRunCellsOnce: Fig. 4(b) and Fig. 4(c) read the same three VO
// cells, and rows run from one DefaultConfig, as gridsim runs them, run those
// cells once.
func TestFig4bcRunCellsOnce(t *testing.T) {
	checkRunsOnce(t, "fig4c", fig4b, fig4c)
}

// checkRunsOnce runs first and then second from one DefaultConfig. After
// first the registry observes nothing more while second runs, and second's
// report is the one it makes from a Config of its own.
func checkRunsOnce(t *testing.T, name string, first, second func(Config) (*Report, error)) {
	t.Helper()
	scrape := func(reg *telemetry.Registry) string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	report := func(r *Report, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	cfg := DefaultConfig(3, 20)
	cfg.Telemetry = telemetry.NewRegistry()
	report(first(cfg))
	afterFirst := scrape(cfg.Telemetry)
	shared := report(second(cfg))
	if scrape(cfg.Telemetry) != afterFirst {
		t.Errorf("%s ran its units again after the row before it had run them from the same Config", name)
	}
	own := DefaultConfig(3, 20)
	own.Telemetry = telemetry.NewRegistry()
	if alone := report(second(own)); alone != shared {
		t.Errorf("%s from the shared run differs from %s alone:\n got %s\nwant %s", name, name, shared, alone)
	}
	if scrape(own.Telemetry) == scrape(telemetry.NewRegistry()) {
		t.Errorf("%s alone observed nothing: the comparison above shows nothing", name)
	}
}

func TestFig4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	cfg := Config{Seed: 1, Jobs: 150}
	for _, run := range []func(Config) (*Report, error){fig4a, fig4b} {
		r, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkClaims(t, r)
	}
	c, err := fig4c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 4c: cheap slow strategies like S3 are the most
	// persistent; sparse MS1 is less persistent and less accurate than S3.
	// Neither holds on the golden run's 30 jobs (E34), so they are not
	// paperClaims.
	if c.Value("ttl-S3") < c.Value("ttl-MS1") {
		t.Errorf("S3 TTL %v below MS1 %v", c.Value("ttl-S3"), c.Value("ttl-MS1"))
	}
	if c.Value("dev-MS1") <= c.Value("dev-S3") {
		t.Errorf("MS1 deviation %v not above S3 %v", c.Value("dev-MS1"), c.Value("dev-S3"))
	}
}

func TestPoliciesShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	r, err := policies(Config{Seed: 1, Jobs: 500})
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, r)
	// LWF trades tail for mean: its worst-case wait (starvation) exceeds
	// FCFS's. Not on the golden run's 30 jobs (E34), so not a paperClaim.
	if r.Value("maxwait-LWF") <= r.Value("maxwait-FCFS") {
		t.Errorf("LWF max wait %v not above FCFS %v",
			r.Value("maxwait-LWF"), r.Value("maxwait-FCFS"))
	}
}

func TestAblationCollisionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	r, err := ablationCollision(Config{Seed: 1, Jobs: 120})
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, r)
}

func TestAblationLevelsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	r, err := ablationLevels(Config{Seed: 1, Jobs: 120})
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, r)
}

func TestComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	r, err := comparison(Config{Seed: 1, Jobs: 120})
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, r)
}

func TestFig4Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	cfg := Config{Seed: 3, Jobs: 40}
	a1, err := fig4a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := fig4a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a1.Values {
		if a2.Values[k] != v {
			t.Errorf("value %q differs across identical runs: %v vs %v", k, v, a2.Values[k])
		}
	}
}

func TestLocalPassingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	r, err := localPassing(Config{Seed: 1, Jobs: 100})
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, r)
}

func TestReportWriteTo(t *testing.T) {
	r, err := fig2(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== fig2:") || !strings.Contains(out, "critical works") {
		t.Errorf("unexpected report rendering:\n%s", out)
	}
}

func TestReportValuePanicsOnUnknownKey(t *testing.T) {
	r := newReport("x", "y")
	defer func() {
		if recover() == nil {
			t.Fatal("unknown key did not panic")
		}
	}()
	r.Value("nope")
}

func TestAvailabilityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	cfg := DefaultConfig(1, 60)
	cfg.Levels = []float64{1.0, 0.9, 0.8}
	r, err := availability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, r)
}

func TestAvailabilityDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	cfg := DefaultConfig(3, 30)
	cfg.Levels = []float64{0.9}
	a, err := availability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := availability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Values {
		if b.Values[k] != v {
			t.Errorf("value %q differs across identical faulty runs: %v vs %v", k, v, b.Values[k])
		}
	}
}

// TestEveryExperimentRefusesAnEmptyCorpus: a corpus size below one is an
// error from every experiment that takes one, returned at once, never a hang
// (an empty flow once left the VO's background load re-arming forever), a
// panic or a NaN report.
func TestEveryExperimentRefusesAnEmptyCorpus(t *testing.T) {
	for _, e := range Experiments {
		if e.ID == "fig2" {
			continue // the worked example has no corpus
		}
		for _, jobs := range []int{0, -3} {
			t.Run(fmt.Sprintf("%s/jobs%d", e.ID, jobs), func(t *testing.T) {
				type result struct {
					report *Report
					err    error
					panic  any
				}
				done := make(chan result, 1)
				go func() {
					defer func() {
						if p := recover(); p != nil {
							done <- result{panic: p}
						}
					}()
					r, err := e.Run(DefaultConfig(3, jobs))
					done <- result{report: r, err: err}
				}()
				select {
				case res := <-done:
					if res.panic != nil {
						t.Fatalf("panic: %v", res.panic)
					}
					if res.err == nil {
						var report bytes.Buffer
						res.report.WriteTo(&report)
						t.Fatalf("no error; report:\n%s", report.String())
					}
				case <-time.After(10 * time.Second):
					t.Fatal("still running after 10 s")
				}
			})
		}
	}
}
